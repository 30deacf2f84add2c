// Package search implements an Elasticsearch/Lucene-style distributed
// search engine — a real inverted index over a synthetic StackOverflow-like
// corpus, sharded with per-operation thread pools — and the ESRally
// "nested"-track driver the paper uses (Section VI-F, Figure 9): the RTQ,
// RNQIHBS, RSTQ and MA challenges across shard counts and memory
// configurations.
package search

import (
	"fmt"
	"math/rand"
	"slices"

	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

// DocMetaBytes is the stored per-document metadata footprint (date, answer
// counts, source offsets).
const DocMetaBytes = 128

// CorpusConfig shapes the synthetic StackOverflow dump.
type CorpusConfig struct {
	Seed int64
	// Docs is the total document (question) count.
	Docs int
	// Tags is the tag vocabulary size; tag popularity is skewed so random
	// tag queries hit realistic posting-list lengths.
	Tags int
	// TagsPerDoc is the average number of tags per question.
	TagsPerDoc int
}

// DefaultCorpusConfig returns a corpus sized for simulation.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{Seed: 7, Docs: 600_000, Tags: 200, TagsPerDoc: 3}
}

// docMeta is the functional document metadata (the simulated arena carries
// the timing; this carries the truth for correctness checks).
type docMeta struct {
	id      int32
	date    int32 // days since epoch
	answers int16 // answers posted before `date`+window
}

// Shard is one index shard: an inverted index over its documents plus the
// stored metadata region, both living in simulated memory.
type Shard struct {
	id    int
	arena *mem.Buffer

	docs []docMeta
	// The posting slices are indexed by tag, one entry per tag of the
	// corpus vocabulary; a tag no document carries has an empty list.
	//
	// postings[tag] holds the local doc ordinals (ascending): the
	// build-time truth that TestShardEncodingMatchesTruth checks the
	// encoded form against.
	postings [][]int32
	// postingEnc[tag] is the varint-delta-encoded posting list (the bytes
	// that actually live in the arena).
	postingEnc [][]byte
	// postingOff[tag] is the arena byte offset of the encoded list.
	postingOff []int64
	metaOff    int64
}

// encoded returns a tag's encoded posting list and its arena offset; a tag
// outside the vocabulary has an empty list.
func (s *Shard) encoded(tag int) ([]byte, int64) {
	if tag < 0 || tag >= len(s.postingEnc) {
		return nil, 0
	}
	return s.postingEnc[tag], s.postingOff[tag]
}

// docMetaAddr returns the arena address of a document's stored metadata.
func (s *Shard) docMetaAddr(ord int32) uint64 {
	return s.arena.Addr(s.metaOff + int64(ord)*DocMetaBytes)
}

// Engine is one search-engine instance (one per server node).
type Engine struct {
	host   *core.Host
	shards []*Shard
	// pool is the search thread pool (Elasticsearch sizes it from the core
	// count).
	poolFree []*mem.Thread
	poolSig  *sim.Signal
	// coord is the coordinating (REST) thread.
	coord *mem.Thread
}

// EngineConfig tunes an instance.
type EngineConfig struct {
	Shards      int
	PoolThreads int
}

// NewEngine builds an instance holding `docs` documents spread over the
// configured shards, with the given page placement for index memory.
func NewEngine(host *core.Host, placer numa.Placer, corpus CorpusConfig, cfg EngineConfig) (*Engine, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("search: no shards")
	}
	if corpus.Tags <= 0 {
		return nil, fmt.Errorf("search: corpus has %d tags", corpus.Tags)
	}
	if cfg.PoolThreads <= 0 {
		cfg.PoolThreads = 48
	}
	e := &Engine{host: host, poolSig: sim.NewSignal(host.K), coord: host.NewThread(0)}
	rng := rand.New(rand.NewSource(corpus.Seed))

	perShard := corpus.Docs / cfg.Shards
	if perShard == 0 {
		return nil, fmt.Errorf("search: %d docs cannot fill %d shards", corpus.Docs, cfg.Shards)
	}
	// docTags holds one shard's tag draws, TagsPerDoc per document, with -1
	// for a draw that repeats a tag of the same document. counts[tag]
	// sizes each posting list, so a shard's lists share one backing array.
	tagsPerDoc := max(corpus.TagsPerDoc, 0)
	docTags := make([]int32, perShard*tagsPerDoc)
	counts := make([]int, corpus.Tags)
	for si := 0; si < cfg.Shards; si++ {
		sh := &Shard{
			id:         si,
			docs:       make([]docMeta, 0, perShard),
			postings:   make([][]int32, corpus.Tags),
			postingEnc: make([][]byte, corpus.Tags),
			postingOff: make([]int64, corpus.Tags),
		}
		clear(counts)
		for ord := 0; ord < perShard; ord++ {
			d := docMeta{
				id:      int32(si*perShard + ord),
				date:    int32(rng.Intn(4000)),
				answers: int16(rng.Intn(160)),
			}
			sh.docs = append(sh.docs, d)
			drawn := docTags[ord*tagsPerDoc : (ord+1)*tagsPerDoc]
			for t := range drawn {
				// Skewed tag popularity: squaring the uniform draw favors
				// low tag IDs ~ 1/sqrt density.
				u := rng.Float64()
				tag := int(u * u * float64(corpus.Tags))
				if tag >= corpus.Tags {
					tag = corpus.Tags - 1
				}
				if slices.Contains(drawn[:t], int32(tag)) {
					drawn[t] = -1 // duplicate tag on this doc
					continue
				}
				drawn[t] = int32(tag)
				counts[tag]++
			}
		}
		// Fill the lists in document order, so each ascends.
		total := 0
		for _, c := range counts {
			total += c
		}
		backing := make([]int32, total)
		for t, c := range counts {
			sh.postings[t], backing = backing[:0:c], backing[c:]
		}
		for i, tag := range docTags {
			if tag >= 0 {
				sh.postings[tag] = append(sh.postings[tag], int32(i/tagsPerDoc))
			}
		}
		// Encode every non-empty posting list (Lucene-style varint deltas;
		// TestShardEncodingMatchesTruth checks the round trip) back to back
		// in ascending tag order, the arena's layout, followed by the
		// stored-fields region.
		off := int64(0)
		for t, list := range sh.postings {
			if len(list) == 0 {
				continue
			}
			n, err := encodedLen(list)
			if err != nil {
				return nil, fmt.Errorf("search: shard %d tag %d: %w", si, t, err)
			}
			sh.postingOff[t] = off
			off += int64(n)
		}
		sh.metaOff = off
		enc := make([]byte, 0, off)
		for t, list := range sh.postings {
			if len(list) == 0 {
				continue
			}
			enc = appendPostings(enc, list)
			sh.postingEnc[t] = enc[sh.postingOff[t]:len(enc):len(enc)]
		}
		metaBytes := int64(perShard) * DocMetaBytes
		arena, err := host.Mem.Alloc(sh.metaOff+metaBytes+mem.CachelineSize, placer)
		if err != nil {
			return nil, fmt.Errorf("search: shard %d arena: %w", si, err)
		}
		sh.arena = arena
		e.shards = append(e.shards, sh)
	}
	for i := 0; i < cfg.PoolThreads; i++ {
		e.poolFree = append(e.poolFree, host.NewThread(i))
	}
	return e, nil
}

// Shards returns the instance's shard list.
func (e *Engine) Shards() []*Shard { return e.shards }

func (e *Engine) acquireThread(p *sim.Proc) *mem.Thread {
	for len(e.poolFree) == 0 {
		e.poolSig.Wait(p)
	}
	th := e.poolFree[len(e.poolFree)-1]
	e.poolFree = e.poolFree[:len(e.poolFree)-1]
	return th
}

func (e *Engine) releaseThread(th *mem.Thread) {
	e.poolFree = append(e.poolFree, th)
	e.poolSig.Wake()
}

// Close frees the shard arenas.
func (e *Engine) Close() {
	for _, sh := range e.shards {
		e.host.Mem.Free(sh.arena)
	}
}
