package llc

import "thymesisflow/internal/instrument"

// Instruments is the port's scalar instrument table: credit, replay and
// fenced state plus every protocol counter in Stats. The cluster binds it
// to each attachment port as llc.<att>.p<i>. (compute side) and
// llc.<att>.q<i>. (donor side); the metrics registry and the flight
// recorder both read it.
var Instruments = []instrument.Def[*Port]{
	instrument.Gauge("credits", func(p *Port) float64 { return float64(p.Credits()) }),
	instrument.Gauge("replay_depth", func(p *Port) float64 { return float64(p.ReplayDepth()) }),
	instrument.Gauge("down", func(p *Port) float64 {
		if p.Down() {
			return 1
		}
		return 0
	}),
	stat("tx_frames", func(s *Stats) int64 { return s.TxFrames }),
	stat("tx_control", func(s *Stats) int64 { return s.TxControl }),
	stat("tx_replayed", func(s *Stats) int64 { return s.TxReplayed }),
	stat("rx_frames", func(s *Stats) int64 { return s.RxFrames }),
	stat("rx_crc_errors", func(s *Stats) int64 { return s.RxCRCErrors }),
	stat("rx_gaps", func(s *Stats) int64 { return s.RxGaps }),
	stat("rx_duplicates", func(s *Stats) int64 { return s.RxDuplicates }),
	stat("tx_transactions", func(s *Stats) int64 { return s.TxTransactions }),
	stat("rx_transactions", func(s *Stats) int64 { return s.RxTransactions }),
	stat("padding_flits", func(s *Stats) int64 { return s.PaddingFlits }),
	stat("credit_stalls", func(s *Stats) int64 { return s.CreditStalls }),
	stat("credit_probes", func(s *Stats) int64 { return s.CreditProbes }),
	stat("replay_exhausted", func(s *Stats) int64 { return s.ReplayExhausted }),
	stat("replay_overflows", func(s *Stats) int64 { return s.ReplayOverflows }),
	stat("tx_abandoned", func(s *Stats) int64 { return s.TxAbandoned }),
	stat("link_down_events", func(s *Stats) int64 { return s.LinkDownEvents }),
}

// stat declares a counter over one Stats field.
func stat(name string, field func(*Stats) int64) instrument.Def[*Port] {
	return instrument.Counter(name, func(p *Port) float64 { return float64(field(&p.stats)) })
}
