package search

import (
	"fmt"
	"testing"

	"thymesisflow/internal/core"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

func smallCorpus() CorpusConfig {
	return CorpusConfig{Seed: 3, Docs: 40_000, Tags: 50, TagsPerDoc: 3}
}

func newLocalEngine(t *testing.T, shards int) (*core.Testbed, *Engine) {
	t.Helper()
	tb, err := core.NewTestbed(core.ConfigLocal, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tb.Server, numa.Local(tb.Server.LocalNode(0)), smallCorpus(),
		EngineConfig{Shards: shards, PoolThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	return tb, e
}

func TestIndexStructure(t *testing.T) {
	_, e := newLocalEngine(t, 4)
	if len(e.Shards()) != 4 {
		t.Fatalf("shards = %d", len(e.Shards()))
	}
	totalDocs := 0
	for _, sh := range e.Shards() {
		totalDocs += len(sh.docs)
		// Posting lists are sorted ascending and in range.
		for tag, list := range sh.postings {
			for i, ord := range list {
				if int(ord) >= len(sh.docs) {
					t.Fatalf("tag %d: ordinal %d out of range", tag, ord)
				}
				if i > 0 && list[i-1] >= ord {
					t.Fatalf("tag %d: posting list not strictly ascending", tag)
				}
			}
		}
		// Every non-empty list has an encoding; the encodings sit back to
		// back in ascending tag order, at strictly ascending offsets, and
		// end where the stored-fields region begins.
		end := int64(0)
		for tag, list := range sh.postings {
			enc := sh.postingEnc[tag]
			if len(list) == 0 {
				if len(enc) != 0 {
					t.Fatalf("tag %d: empty list with a %d-byte encoding", tag, len(enc))
				}
				continue
			}
			if len(enc) == 0 {
				t.Fatalf("tag %d: %d postings but no encoding", tag, len(list))
			}
			if sh.postingOff[tag] != end {
				t.Fatalf("tag %d: arena offset %d, want %d (previous list's end)",
					tag, sh.postingOff[tag], end)
			}
			end += int64(len(enc))
		}
		if sh.metaOff != end {
			t.Fatalf("metaOff = %d, want %d (end of the last list)", sh.metaOff, end)
		}
	}
	if totalDocs != 40_000 {
		t.Fatalf("docs = %d", totalDocs)
	}
}

// TestIndexLayoutGolden pins the arena layout of a small two-shard
// corpus: each arena's base address, every tag's posting-list offset (-1
// for a tag no document in the shard carries) and the stored-fields
// offset. Query timing reads these addresses, so any change to how the
// index is laid out shows here before it shows in a figure.
func TestIndexLayoutGolden(t *testing.T) {
	tb, err := core.NewTestbed(core.ConfigLocal, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	corpus := CorpusConfig{Seed: 3, Docs: 60, Tags: 40, TagsPerDoc: 3}
	e, err := NewEngine(tb.Server, numa.Local(tb.Server.LocalNode(0)), corpus,
		EngineConfig{Shards: 2, PoolThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		base    uint64
		offs    []int64
		metaOff int64
	}{
		{0x10000, []int64{0, 13, 16, -1, 20, 24, 28, -1, 31, 34, 37, 42, 43, 46, 50, -1, 52, -1, -1, 53,
			54, 56, 57, 58, 60, 61, 62, 65, 68, 69, 70, 71, 74, 75, -1, 78, 79, 81, 83, -1}, 84},
		{0x20000, []int64{0, 12, 20, 25, 28, 31, 34, 35, 36, 37, 39, -1, 41, -1, 42, 45, 48, 50, 55, 57,
			-1, 58, 59, -1, 60, 61, 62, 64, 66, -1, 67, -1, 72, 74, 75, 77, 79, 80, 81, 84}, 85},
	}
	for si, sh := range e.Shards() {
		want := golden[si]
		if sh.arena.Base != want.base {
			t.Fatalf("shard %d: arena base %#x, want %#x", si, sh.arena.Base, want.base)
		}
		for tag, off := range want.offs {
			enc, got := sh.encoded(tag)
			if len(enc) == 0 {
				got = -1
			}
			if got != off {
				t.Fatalf("shard %d tag %d: offset %d, want %d", si, tag, got, off)
			}
		}
		if sh.metaOff != want.metaOff {
			t.Fatalf("shard %d: metaOff %d, want %d", si, sh.metaOff, want.metaOff)
		}
	}
}

func TestTagPopularitySkew(t *testing.T) {
	_, e := newLocalEngine(t, 1)
	sh := e.Shards()[0]
	if len(sh.postings[0]) <= len(sh.postings[40])*2 {
		t.Fatalf("tag popularity not skewed: tag0=%d tag40=%d",
			len(sh.postings[0]), len(sh.postings[40]))
	}
}

func TestRTQCountsMatchIndex(t *testing.T) {
	tb, e := newLocalEngine(t, 2)
	const tag = 5
	want := 0
	for _, sh := range e.Shards() {
		want += len(sh.postings[tag])
	}
	got := 0
	tb.Cluster.K.Go("q", func(p *sim.Proc) {
		for _, sh := range e.Shards() {
			th := e.acquireThread(p)
			got += sh.runRTQ(p, th, tag)
			e.releaseThread(th)
		}
	})
	tb.Cluster.K.Run()
	if got != want {
		t.Fatalf("RTQ hits = %d, want %d", got, want)
	}
}

func TestRNQIHBSFiltersCorrectly(t *testing.T) {
	tb, e := newLocalEngine(t, 1)
	sh := e.Shards()[0]
	const tag, date = 3, 2000
	want := 0
	for _, ord := range sh.postings[tag] {
		d := sh.docs[ord]
		if d.answers >= 100 && d.date < date {
			want++
		}
	}
	got := 0
	tb.Cluster.K.Go("q", func(p *sim.Proc) {
		th := e.acquireThread(p)
		got = sh.runRNQIHBS(p, th, tag, date)
		e.releaseThread(th)
	})
	tb.Cluster.K.Run()
	if got != want {
		t.Fatalf("RNQIHBS hits = %d, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("degenerate test: no matching docs")
	}
}

func TestChallengeLatencyOrdering(t *testing.T) {
	// Per-query time: MA (fixed) < RTQ (postings only) < RNQIHBS/RSTQ
	// (postings + doc values + nested setup).
	tb, e := newLocalEngine(t, 1)
	sh := e.Shards()[0]
	dur := func(f func(p *sim.Proc)) sim.Time {
		start := tb.Cluster.K.Now()
		tb.Cluster.K.Go("q", f)
		tb.Cluster.K.Run()
		return tb.Cluster.K.Now() - start
	}
	const tag = 0 // hottest tag: longest list
	ma := dur(func(p *sim.Proc) {
		th := e.acquireThread(p)
		sh.runMA(p, th)
		e.releaseThread(th)
	})
	rtq := dur(func(p *sim.Proc) {
		th := e.acquireThread(p)
		sh.runRTQ(p, th, tag)
		e.releaseThread(th)
	})
	nested := dur(func(p *sim.Proc) {
		th := e.acquireThread(p)
		sh.runRNQIHBS(p, th, tag, 2000)
		e.releaseThread(th)
	})
	if !(ma < rtq && rtq < nested) {
		t.Fatalf("per-shard cost ordering violated: MA=%v RTQ=%v RNQIHBS=%v", ma, rtq, nested)
	}
}

func fig9(t *testing.T, ch Challenge, shards int, cfg core.MemoryConfig) float64 {
	t.Helper()
	rc := DefaultRunConfig(ch, shards)
	rc.Clients = 32
	rc.OpsPerClient = 2
	rc.Corpus = CorpusConfig{Seed: 3, Docs: 120_000, Tags: 80, TagsPerDoc: 3}
	if ch == MA {
		rc.OpsPerClient = 10
	}
	res, err := Run(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Throughput
}

func TestRTQScaleOutWins(t *testing.T) {
	// Figure 9: for RTQ the scale-out configuration outperforms every
	// other, including local, while the ThymesisFlow configurations trail.
	local := fig9(t, RTQ, 32, core.ConfigLocal)
	scale := fig9(t, RTQ, 32, core.ConfigScaleOut)
	single := fig9(t, RTQ, 32, core.ConfigSingleDisaggregated)
	inter := fig9(t, RTQ, 32, core.ConfigInterleaved)
	if scale <= local {
		t.Fatalf("RTQ: scale-out %.0f should beat local %.0f", scale, local)
	}
	if single >= local || single >= inter {
		t.Fatalf("RTQ: single %.0f should trail local %.0f and interleaved %.0f", single, local, inter)
	}
}

func TestNestedChallengesDegradeWithShards(t *testing.T) {
	// Figure 9: challenges requiring tighter synchronization degrade as
	// shards scale.
	for _, ch := range []Challenge{RNQIHBS, RSTQ, MA} {
		at5 := fig9(t, ch, 5, core.ConfigLocal)
		at32 := fig9(t, ch, 32, core.ConfigLocal)
		if at32 >= at5 {
			t.Fatalf("%v: throughput grew with shards (%.0f -> %.0f)", ch, at5, at32)
		}
	}
}

func TestMASimilarAcrossConfigs(t *testing.T) {
	// Figure 9: for MA the ThymesisFlow configurations perform like local
	// and scale-out.
	local := fig9(t, MA, 5, core.ConfigLocal)
	single := fig9(t, MA, 5, core.ConfigSingleDisaggregated)
	scale := fig9(t, MA, 5, core.ConfigScaleOut)
	if single < local*0.9 || single > local*1.1 {
		t.Fatalf("MA: single %.0f vs local %.0f not similar", single, local)
	}
	if scale < local*0.8 || scale > local*1.25 {
		t.Fatalf("MA: scale-out %.0f vs local %.0f not similar", scale, local)
	}
}

func TestScaleOutBeatsDisaggregatedOnNested(t *testing.T) {
	// Figure 9: scale-out outperforms the ThymesisFlow configurations on
	// the synchronization-heavy challenges.
	for _, ch := range []Challenge{RNQIHBS, RSTQ} {
		scale := fig9(t, ch, 5, core.ConfigScaleOut)
		single := fig9(t, ch, 5, core.ConfigSingleDisaggregated)
		if scale <= single {
			t.Fatalf("%v: scale-out %.0f should beat single-disaggregated %.0f", ch, scale, single)
		}
	}
}

var benchEngine *Engine

// BenchmarkNewEngine builds the index of one Figure 9 quick-scale cell
// (120,000 documents, 200 tags) at the paper's two shard counts, freeing
// each build's arenas before the next.
func BenchmarkNewEngine(b *testing.B) {
	for _, shards := range []int{5, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tb, err := core.NewTestbed(core.ConfigLocal, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			corpus := DefaultCorpusConfig()
			corpus.Docs = 120_000
			placer := numa.Local(tb.Server.LocalNode(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(tb.Server, placer, corpus, EngineConfig{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				e.Close()
				benchEngine = e
			}
		})
	}
}
