package search

import (
	"cmp"
	"fmt"
	"slices"

	"thymesisflow/internal/mem"
	"thymesisflow/internal/sim"
)

// Challenge is one ESRally "nested"-track challenge (Section VI-F).
type Challenge int

// The challenges the paper reports.
const (
	// RTQ searches for all questions featuring a randomly generated tag.
	RTQ Challenge = iota
	// RNQIHBS searches for questions with at least 100 answers before a
	// random date.
	RNQIHBS
	// RSTQ searches questions by tag sorted descending by date.
	RSTQ
	// MA queries all questions (match-all).
	MA
)

var challengeNames = [...]string{"RTQ", "RNQIHBS", "RSTQ", "MA"}

// String returns the challenge mnemonic used in Figure 9.
func (c Challenge) String() string {
	if int(c) < len(challengeNames) {
		return challengeNames[c]
	}
	return fmt.Sprintf("challenge(%d)", int(c))
}

// Challenges lists the four reported challenges.
func Challenges() []Challenge { return []Challenge{RTQ, RNQIHBS, RSTQ, MA} }

// Query cost-model constants (calibrated; see EXPERIMENTS.md).
const (
	postingChunkBytes = 4 * mem.CachelineSize // skip-list block fetch granularity
	docValueBatch     = 16                    // doc-values read-ahead (docs per burst)
	normsBatch        = 64                    // norms/impacts read-ahead (lighter per-doc data)
	scoreInstrPerDoc  = 100
	filterInstrPerDoc = 600
	sortInstrPerDoc   = 100
	coordInstr        = 20_000 // coordinating-node REST + reduce setup
	mergeInstrPerShrd = 12_000
	topK              = 10

	// Per-shard query setup (parse, rewrite, Lucene weight/segment setup).
	// Simple term queries are cheap; nested queries rewrite into block-join
	// structures and are far heavier — this fixed per-shard cost is what
	// makes the nested challenges degrade as shards grow (Figure 9).
	simpleSetupInstr = 60_000
	nestedSetupInstr = 1_100_000
	matchAllInstr    = 760_000
)

// streamPostings walks a tag's posting list: dependent block fetches (each
// block's skip pointer is only known after the previous block arrives), so
// remote memory latency is paid serially per block. The varint-delta
// encoding is decoded for real, returning the local ordinals.
func (sh *Shard) streamPostings(p *sim.Proc, th *mem.Thread, tag int) []int32 {
	enc, base := sh.encoded(tag)
	if len(enc) == 0 {
		return nil
	}
	total := int64(len(enc))
	for off := int64(0); off < total; off += postingChunkBytes {
		n := int64(postingChunkBytes)
		if off+n > total {
			n = total - off
		}
		th.Access(p, sh.arena.Addr(base+off), n, false)
	}
	return decodePostings(enc)
}

// scanDocValues prices a doc-values sweep over the candidate ordinals:
// Lucene reads doc values in ascending doc order, so the engine's
// read-ahead turns the per-document touches into batched bursts.
func (sh *Shard) scanDocValues(p *sim.Proc, th *mem.Thread, list []int32) {
	sh.scanDocValuesBatch(p, th, list, docValueBatch)
}

// scanDocValuesBatch is scanDocValues with an explicit read-ahead depth:
// lightweight per-doc data (norms, impacts) streams with deeper read-ahead
// than full filter/sort doc values.
func (sh *Shard) scanDocValuesBatch(p *sim.Proc, th *mem.Thread, list []int32, batch int) {
	for i := 0; i < len(list); i += batch {
		n := batch
		if i+n > len(list) {
			n = len(list) - i
		}
		th.Access(p, sh.docMetaAddr(list[i]), int64(n)*DocMetaBytes, false)
	}
}

// runRTQ executes the random-tag query on one shard, returning hit count.
// Scoring reads each candidate's norms/impacts from doc values — the
// per-document memory traffic that makes term queries latency-sensitive on
// disaggregated memory (Figure 9's RTQ shows the largest gap).
func (sh *Shard) runRTQ(p *sim.Proc, th *mem.Thread, tag int) int {
	th.Compute(p, simpleSetupInstr)
	list := sh.streamPostings(p, th, tag)
	sh.scanDocValuesBatch(p, th, list, normsBatch)
	th.Compute(p, int64(len(list))*scoreInstrPerDoc)
	// Fetch stored fields of the top-k documents.
	for i := 0; i < topK && i < len(list); i++ {
		th.Access(p, sh.docMetaAddr(list[i]), DocMetaBytes, false)
	}
	return len(list)
}

// runRNQIHBS filters a tag's questions by answers-before-date; every
// candidate requires its metadata document (random access).
func (sh *Shard) runRNQIHBS(p *sim.Proc, th *mem.Thread, tag int, date int32) int {
	th.Compute(p, nestedSetupInstr)
	list := sh.streamPostings(p, th, tag)
	sh.scanDocValues(p, th, list)
	th.Compute(p, int64(len(list))*filterInstrPerDoc)
	hits := 0
	for _, ord := range list {
		d := sh.docs[ord]
		if d.answers >= 100 && int32(d.date) < date {
			hits++
		}
	}
	return hits
}

// runRSTQ runs the tag query and sorts results by date descending.
func (sh *Shard) runRSTQ(p *sim.Proc, th *mem.Thread, tag int) int {
	th.Compute(p, nestedSetupInstr)
	list := sh.streamPostings(p, th, tag)
	// The sort key (date) lives in doc values.
	sh.scanDocValues(p, th, list)
	n := len(list)
	if n > 1 {
		cost := int64(n) * int64(log2(n)) * sortInstrPerDoc
		th.Compute(p, cost)
	}
	// Functional sort over the truth data (verifies the index contents).
	dates := make([]int32, n)
	for i, ord := range list {
		dates[i] = int32(sh.docs[ord].date)
	}
	slices.SortFunc(dates, func(a, b int32) int { return cmp.Compare(b, a) })
	return n
}

// RunBooleanAnd executes a two-tag conjunction on one shard: both posting
// lists stream from memory and are intersected with galloping search.
// Multi-tag filtering is how StackOverflow-style questions are actually
// browsed; it is exposed as an engine capability beyond the Rally track.
func (sh *Shard) RunBooleanAnd(p *sim.Proc, th *mem.Thread, tagA, tagB int) int {
	th.Compute(p, simpleSetupInstr)
	a := sh.streamPostings(p, th, tagA)
	b := sh.streamPostings(p, th, tagB)
	hits := intersectPostings(a, b)
	// Galloping intersection: ~len(shorter) * log(len(longer)) work.
	short, long := len(a), len(b)
	if short > long {
		short, long = long, short
	}
	if short > 0 {
		th.Compute(p, int64(short)*int64(log2(long+1)+1)*20)
	}
	return len(hits)
}

// runMA is match-all: Elasticsearch returns the first page of documents
// without scoring the corpus, so the per-shard cost is fixed and largely
// configuration-insensitive.
func (sh *Shard) runMA(p *sim.Proc, th *mem.Thread) int {
	th.Compute(p, matchAllInstr)
	for i := int32(0); i < topK && int(i) < len(sh.docs); i++ {
		th.Access(p, sh.docMetaAddr(i), DocMetaBytes, false)
	}
	return len(sh.docs)
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}
