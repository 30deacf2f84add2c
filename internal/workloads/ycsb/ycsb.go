// Package ycsb implements the Yahoo! Cloud Serving Benchmark client-side
// workload generator (Cooper et al., SoCC'10): the six core workloads A-F
// with their operation mixes and request distributions, used by the paper
// to drive the VoltDB evaluation (Section VI-D).
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is one YCSB operation type.
type OpKind int

// YCSB operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

var opNames = [...]string{"read", "update", "insert", "scan", "rmw"}

// String returns the operation mnemonic.
func (o OpKind) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Workload identifies one of the six core workloads.
type Workload byte

// The six core YCSB workloads.
const (
	WorkloadA Workload = 'A' // update heavy: 50/50 read/update, zipfian
	WorkloadB Workload = 'B' // read mostly: 95/5 read/update, zipfian
	WorkloadC Workload = 'C' // read only, zipfian
	WorkloadD Workload = 'D' // read latest: 95/5 read/insert, latest
	WorkloadE Workload = 'E' // short ranges: 95/5 scan/insert, zipfian
	WorkloadF Workload = 'F' // 50/50 read/read-modify-write, zipfian
)

// Workloads lists A-F in order.
func Workloads() []Workload {
	return []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF}
}

// String returns "A".."F".
func (w Workload) String() string { return string(w) }

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
	// ScanLen is the record count for scans (uniform in [1, MaxScanLen]).
	ScanLen int
}

// Config tunes the generator.
type Config struct {
	Records      int64   // table size in records
	ZipfExponent float64 // request-distribution skew (YCSB default 0.99)
	MaxScanLen   int     // workload E max scan length (YCSB default 100)
}

// DefaultConfig returns YCSB defaults for the given table size.
func DefaultConfig(records int64) Config {
	return Config{Records: records, ZipfExponent: 0.99, MaxScanLen: 100}
}

// Generator produces the operation stream for one client thread.
type Generator struct {
	w        Workload
	cfg      Config
	rng      *rand.Rand
	inserted int64 // grows the key space for D/E inserts
}

// NewGenerator builds a generator for the workload. Seed should differ per
// client thread.
func NewGenerator(w Workload, cfg Config, seed int64) (*Generator, error) {
	switch w {
	case WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF:
	default:
		return nil, fmt.Errorf("ycsb: unknown workload %q", string(w))
	}
	if cfg.Records <= 0 {
		return nil, fmt.Errorf("ycsb: empty table")
	}
	if cfg.MaxScanLen <= 0 {
		cfg.MaxScanLen = 100
	}
	return &Generator{w: w, cfg: cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// zipfKey samples a key with the zipfian request distribution (inverse-CDF
// approximation; see kvcache.Zipf for the derivation).
func (g *Generator) zipfKey() uint64 {
	n := float64(g.cfg.Records + g.inserted)
	s := g.cfg.ZipfExponent
	u := g.rng.Float64()
	var k float64
	if math.Abs(s-1.0) < 1e-9 {
		k = math.Exp(u * math.Log(n))
	} else {
		pow := math.Pow(n, 1-s)
		k = math.Pow(u*(pow-1)+1, 1/(1-s))
	}
	r := uint64(k)
	if r < 1 {
		r = 1
	}
	if r > uint64(n) {
		r = uint64(n)
	}
	return r - 1
}

// latestKey samples with the "latest" distribution: zipfian skew anchored
// at the most recently inserted records (workload D).
func (g *Generator) latestKey() uint64 {
	n := uint64(g.cfg.Records + g.inserted)
	off := g.zipfKey() // zipf rank, hottest = most recent
	return n - 1 - off%n
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	roll := g.rng.Float64()
	switch g.w {
	case WorkloadA:
		if roll < 0.5 {
			return Op{Kind: OpRead, Key: g.zipfKey()}
		}
		return Op{Kind: OpUpdate, Key: g.zipfKey()}
	case WorkloadB:
		if roll < 0.95 {
			return Op{Kind: OpRead, Key: g.zipfKey()}
		}
		return Op{Kind: OpUpdate, Key: g.zipfKey()}
	case WorkloadC:
		return Op{Kind: OpRead, Key: g.zipfKey()}
	case WorkloadD:
		if roll < 0.95 {
			return Op{Kind: OpRead, Key: g.latestKey()}
		}
		g.inserted++
		return Op{Kind: OpInsert, Key: uint64(g.cfg.Records + g.inserted - 1)}
	case WorkloadE:
		if roll < 0.95 {
			return Op{
				Kind:    OpScan,
				Key:     g.zipfKey(),
				ScanLen: 1 + g.rng.Intn(g.cfg.MaxScanLen),
			}
		}
		g.inserted++
		return Op{Kind: OpInsert, Key: uint64(g.cfg.Records + g.inserted - 1)}
	default: // WorkloadF
		if roll < 0.5 {
			return Op{Kind: OpRead, Key: g.zipfKey()}
		}
		return Op{Kind: OpReadModifyWrite, Key: g.zipfKey()}
	}
}
