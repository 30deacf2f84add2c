package phy

import "thymesisflow/internal/instrument"

// Instruments is the channel's scalar instrument table: the wire counters
// and the cumulative bytes serialized onto its pipe. The cluster binds it
// to each attachment channel direction as phy.<att>.c<i>.fwd. and
// phy.<att>.c<i>.rev.; utilization is the bytes delta over a sampling
// interval divided by Rate.
var Instruments = []instrument.Def[*Channel]{
	instrument.Counter("sent", func(c *Channel) float64 { return float64(c.sent.Load()) }),
	instrument.Counter("dropped", func(c *Channel) float64 { return float64(c.dropped.Load()) }),
	instrument.Counter("corrupted", func(c *Channel) float64 { return float64(c.corrupted.Load()) }),
	instrument.Counter("bytes", func(c *Channel) float64 { return float64(c.pipe.TotalBytes()) }),
}
