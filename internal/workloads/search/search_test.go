package search

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
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
	ix, err := BuildIndex(smallCorpus(), shards)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tb.Server, numa.Local(tb.Server.LocalNode(0)), ix, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tb, e
}

// referenceCorpus regenerates a corpus the plain way, as the truth an
// index is checked against: per shard, every document's metadata and each
// tag's ascending list of local doc ordinals.
func referenceCorpus(corpus CorpusConfig, shards int) (docs [][]docMeta, postings [][][]int32) {
	rng := rand.New(rand.NewSource(corpus.Seed))
	perShard := corpus.Docs / shards
	for si := 0; si < shards; si++ {
		ds := make([]docMeta, perShard)
		lists := make([][]int32, corpus.Tags)
		for ord := range ds {
			ds[ord] = docMeta{date: int16(rng.Intn(4000)), answers: int16(rng.Intn(160))}
			seen := map[int]bool{}
			for range corpus.TagsPerDoc {
				u := rng.Float64()
				tag := min(int(u*u*float64(corpus.Tags)), corpus.Tags-1)
				if !seen[tag] {
					seen[tag] = true
					lists[tag] = append(lists[tag], int32(ord))
				}
			}
		}
		docs = append(docs, ds)
		postings = append(postings, lists)
	}
	return docs, postings
}

// postingsOf decodes a tag's posting list from its shard's index.
func postingsOf(sh *Shard, tag int) []int32 {
	enc, _ := sh.encoded(tag)
	return decodePostings(nil, enc)
}

func TestIndexStructure(t *testing.T) {
	_, e := newLocalEngine(t, 4)
	if len(e.Shards()) != 4 {
		t.Fatalf("shards = %d", len(e.Shards()))
	}
	_, truth := referenceCorpus(smallCorpus(), 4)
	totalDocs := 0
	for si, sh := range e.Shards() {
		totalDocs += len(sh.docs)
		// Posting lists are sorted ascending and in range.
		for tag := range truth[si] {
			list := postingsOf(sh, tag)
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
		for tag, list := range truth[si] {
			enc, off := sh.encoded(tag)
			if len(list) == 0 {
				if len(enc) != 0 {
					t.Fatalf("tag %d: empty list with a %d-byte encoding", tag, len(enc))
				}
				continue
			}
			if len(enc) == 0 {
				t.Fatalf("tag %d: %d postings but no encoding", tag, len(list))
			}
			if off != end {
				t.Fatalf("tag %d: arena offset %d, want %d (previous list's end)", tag, off, end)
			}
			end += int64(len(enc))
		}
		if sh.metaOff() != end {
			t.Fatalf("metaOff = %d, want %d (end of the last list)", sh.metaOff(), end)
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
	ix, err := BuildIndex(CorpusConfig{Seed: 3, Docs: 60, Tags: 40, TagsPerDoc: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tb.Server, numa.Local(tb.Server.LocalNode(0)), ix, 2)
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
		if sh.metaOff() != want.metaOff {
			t.Fatalf("shard %d: metaOff %d, want %d", si, sh.metaOff(), want.metaOff)
		}
	}
}

func TestTagPopularitySkew(t *testing.T) {
	_, e := newLocalEngine(t, 1)
	sh := e.Shards()[0]
	if hot, cold := len(postingsOf(sh, 0)), len(postingsOf(sh, 40)); hot <= cold*2 {
		t.Fatalf("tag popularity not skewed: tag0=%d tag40=%d", hot, cold)
	}
}

func TestRTQCountsMatchIndex(t *testing.T) {
	tb, e := newLocalEngine(t, 2)
	const tag = 5
	want := 0
	for _, sh := range e.Shards() {
		want += len(postingsOf(sh, tag))
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
	for _, ord := range postingsOf(sh, tag) {
		d := sh.docs[ord]
		if d.answers >= 100 && int32(d.date) < date {
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
	res, err := Run(cfg, rc, NewIndexes())
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

var benchIndex *Index

// BenchmarkBuildIndex builds the index of one Figure 9 quick-scale cell
// (120,000 documents, 200 tags) at the paper's two shard counts.
func BenchmarkBuildIndex(b *testing.B) {
	for _, shards := range []int{5, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			corpus := DefaultCorpusConfig()
			corpus.Docs = 120_000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := BuildIndex(corpus, shards)
				if err != nil {
					b.Fatal(err)
				}
				benchIndex = ix
			}
		})
	}
}

// indexDigest hashes everything an Index holds: every shard's documents,
// encoded posting lists and list offsets.
func indexDigest(ix *Index) [32]byte {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	for _, sh := range ix.shards {
		put(sh.docs)
		put(sh.postings)
		put(sh.start)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// TestEnginesShareIndex checks that two engines built from one Index
// share its documents and posting lists but get distinct arenas, and that
// a batch of all four challenges on both leaves the index byte-unchanged.
func TestEnginesShareIndex(t *testing.T) {
	tb, err := core.NewTestbed(core.ConfigScaleOut, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(smallCorpus(), 3)
	if err != nil {
		t.Fatal(err)
	}
	before := indexDigest(ix)
	hosts := tb.ServerInstances()
	if len(hosts) != 2 {
		t.Fatalf("scale-out testbed has %d server instances, want 2", len(hosts))
	}
	engines := make([]*Engine, 2)
	for i, host := range hosts {
		if engines[i], err = NewEngine(host, numa.Local(host.LocalNode(0)), ix, 4); err != nil {
			t.Fatal(err)
		}
	}
	a, b := engines[0].Shards(), engines[1].Shards()
	for si := range a {
		if a[si].shardIndex != ix.shards[si] || b[si].shardIndex != ix.shards[si] {
			t.Fatalf("shard %d: engines do not share the index's shard", si)
		}
		if &a[si].docs[0] != &b[si].docs[0] || &a[si].postings[0] != &b[si].postings[0] {
			t.Fatalf("shard %d: engines hold copies of the index data", si)
		}
		if a[si].arena == b[si].arena {
			t.Fatalf("shard %d: engines share an arena", si)
		}
	}
	rc := RunConfig{Shards: 6, Clients: 4, OpsPerClient: 3, Corpus: smallCorpus()}
	tasks := shardTasks(engines)
	if len(tasks) != 6 || tasks[0].remote || !tasks[5].remote {
		t.Fatalf("fan-out of %d tasks, first remote %v, last remote %v; want 6, false, true",
			len(tasks), tasks[0].remote, tasks[5].remote)
	}
	for _, ch := range Challenges() {
		rc.Challenge = ch
		for c := 0; c < rc.Clients; c++ {
			rng := rand.New(rand.NewSource(int64(c)))
			q := newQuery(tb, engines[0].coord, tasks, rc)
			tb.Cluster.K.Go("client", func(p *sim.Proc) {
				for i := 0; i < rc.OpsPerClient; i++ {
					q.execute(p, rng)
				}
			})
		}
		tb.Cluster.K.Run()
	}
	if after := indexDigest(ix); after != before {
		t.Fatal("a batch of queries changed the shared index")
	}
}

// TestIndexesBuildEachShapeOnce checks that an index set hands every
// request for one shape the same Index, and a different one per shape.
func TestIndexesBuildEachShapeOnce(t *testing.T) {
	set := NewIndexes()
	var wg sync.WaitGroup
	got := make([]*Index, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix, err := set.Get(smallCorpus(), 2+i%2)
			if err != nil {
				t.Error(err)
			}
			got[i] = ix
		}()
	}
	wg.Wait()
	for i, ix := range got {
		if ix != got[i%2] {
			t.Fatalf("request %d got a second index for its shape", i)
		}
	}
	if got[0] == got[1] || len(got[0].shards) != 2 || len(got[1].shards) != 3 {
		t.Fatalf("shapes 2 and 3 shards got indexes of %d and %d shards", len(got[0].shards), len(got[1].shards))
	}
	if _, err := set.Get(smallCorpus(), 0); err == nil {
		t.Fatal("a zero-shard index built without error")
	}
}

// queryAllocBudget is what one query may allocate once its client has run
// a query before, whatever the shard count: every shard task runs on a
// process the previous query idled, through the client's one query
// record, and decodes into its worker's buffer.
const queryAllocBudget = 1

// TestQueryAllocsIndependentOfShards runs a client's queries over 2 and
// over 16 shards and requires the same small allocation budget per query:
// no closure, WaitGroup, process or posting list per shard task.
func TestQueryAllocsIndependentOfShards(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, shards := range []int{2, 16} {
		for _, ch := range Challenges() {
			tb, e := newLocalEngine(t, shards)
			rc := RunConfig{Challenge: ch, Shards: shards, Corpus: smallCorpus()}
			q := newQuery(tb, e.coord, shardTasks([]*Engine{e}), rc)
			rng := rand.New(rand.NewSource(1))
			var allocs float64
			tb.Cluster.K.Go("client", func(p *sim.Proc) {
				// Warm-up queries let every worker's buffer reach the
				// longest list it will decode, and touch every cache
				// set block the queries reach: a cache allocates a block
				// of sets on its first touch.
				for range 200 {
					q.execute(p, rng)
				}
				allocs = testing.AllocsPerRun(50, func() { q.execute(p, rng) })
			})
			tb.Cluster.K.Run()
			if allocs > queryAllocBudget {
				t.Errorf("%v over %d shards: %.0f allocations per query, budget %d",
					ch, shards, allocs, queryAllocBudget)
			}
		}
	}
}
