package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"thymesisflow/internal/bench"
)

var figureNames = []string{"fig1", "fig5", "fig6", "fig7", "fig8", "fig9"}

// figureFuncs regenerate the paper's figures at quick scale, in
// figureNames order. They take no seed: their inputs are fixed.
var figureFuncs = []func(io.Writer){
	func(w io.Writer) { bench.Fig1(w, bench.Quick) },
	func(w io.Writer) { bench.Fig5Stream(w, bench.Quick) },
	func(w io.Writer) { bench.Fig6Profile(w, bench.Quick) },
	func(w io.Writer) { bench.Fig7Throughput(w, bench.Quick) },
	func(w io.Writer) { bench.Fig8Memcached(w, bench.Quick) },
	func(w io.Writer) { bench.Fig9Search(w, bench.Quick) },
}

type figuresInst struct {
	log *spanLog
}

// setupFigures has nothing to build: every bench.Fig* call builds its own
// testbeds, so the workload's set-up is its cold first pass.
func setupFigures(_ int64, _ sizes, log *spanLog) (instance, error) {
	return &figuresInst{log: log}, nil
}

func (in *figuresInst) run() (*outcome, error) {
	out := newOutcome()
	var text bytes.Buffer
	var total float64
	for i, fig := range figureFuncs {
		name := figureNames[i]
		t0 := time.Now()
		err := in.figure(name, fig, &text)
		d := time.Since(t0).Seconds()
		out.ops++
		if err != nil {
			out.failed++
			fmt.Fprintf(&text, "%s failed: %v\n", name, err)
		}
		out.host["figures."+name+"_s"] = []float64{d}
		total += d
	}
	out.host["figures.total_s"] = []float64{total}
	sum := sha256.Sum256(text.Bytes())
	out.digest = fmt.Sprintf("%x", sum[:8])
	return out, nil
}

// figure runs one figure, reporting a panic (a cell that errored) as an
// error.
func (in *figuresInst) figure(name string, fig func(io.Writer), w io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", name, r)
		}
	}()
	in.log.time("bench."+name, func() { fig(w) })
	return nil
}

// check has nothing to add: the figure text must be identical on every
// pass, which the runner checks through the digest.
func (in *figuresInst) check(*outcome) error { return nil }

func reportFigures(w io.Writer, ph *phase) {
	fmt.Fprintf(w, "figures_s          %s\n", timing(ph.host["figures.total_s"], "s"))
	for _, f := range figureNames {
		fmt.Fprintf(w, "  %-16s %s\n", f, timing(ph.host["figures."+f+"_s"], "s"))
	}
}
