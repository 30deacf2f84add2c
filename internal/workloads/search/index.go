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
	"sync"

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
// the timing; this carries the truth for correctness checks). Its fields
// are as narrow as their ranges allow: shared indexes stay live for a
// whole figure.
type docMeta struct {
	date    int16 // days since epoch, [0, 4000)
	answers int16 // answers posted before `date`+window, [0, 160)
}

// shardIndex is the immutable part of one shard: its documents and
// encoded posting lists. Engines built from one Index share it, and
// queries only read it.
type shardIndex struct {
	docs []docMeta
	// postings holds the posting list of every tag of the corpus
	// vocabulary, ascending local doc ordinals varint-delta-encoded, back
	// to back in ascending tag order: the bytes of the arena's index
	// region, which the stored-fields region follows. A tag no document
	// carries has an empty list. TestShardEncodingMatchesTruth checks the
	// lists against a reference build of the corpus.
	postings []byte
	// start[tag] is the offset of a tag's list in postings; its last entry
	// is len(postings), so list tag ends at start[tag+1].
	start []int64
}

// encoded returns a tag's encoded posting list and its arena offset; a tag
// outside the vocabulary has an empty list.
func (s *shardIndex) encoded(tag int) ([]byte, int64) {
	if tag < 0 || tag >= len(s.start)-1 {
		return nil, 0
	}
	lo, hi := s.start[tag], s.start[tag+1]
	return s.postings[lo:hi:hi], lo
}

// metaOff is the arena offset of the stored-fields region.
func (s *shardIndex) metaOff() int64 { return int64(len(s.postings)) }

// arenaBytes is the arena size the shard's index and stored metadata need.
func (s *shardIndex) arenaBytes() int64 {
	return s.metaOff() + int64(len(s.docs))*DocMetaBytes + mem.CachelineSize
}

// Shard is one index shard of an engine: a shared shardIndex plus the
// engine's own arena, the simulated memory its index and stored metadata
// live in.
type Shard struct {
	id    int
	arena *mem.Buffer
	*shardIndex
}

// docMetaAddr returns the arena address of a document's stored metadata.
func (s *Shard) docMetaAddr(ord int32) uint64 {
	return s.arena.Addr(s.metaOff() + int64(ord)*DocMetaBytes)
}

// Index is an immutable sharded index over a synthetic corpus: every
// shard's documents and encoded posting lists with their arena offsets.
// It holds no simulated memory, so engines on any host may share it; each
// engine allocates its own arenas (NewEngine).
type Index struct {
	shards []*shardIndex
}

// BuildIndex generates the corpus and splits it over `shards` shards.
func BuildIndex(corpus CorpusConfig, shards int) (*Index, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("search: no shards")
	}
	if corpus.Tags <= 0 {
		return nil, fmt.Errorf("search: corpus has %d tags", corpus.Tags)
	}
	perShard := corpus.Docs / shards
	if perShard == 0 {
		return nil, fmt.Errorf("search: %d docs cannot fill %d shards", corpus.Docs, shards)
	}
	ix := &Index{shards: make([]*shardIndex, 0, shards)}
	rng := rand.New(rand.NewSource(corpus.Seed))
	// docTags holds one shard's tag draws, TagsPerDoc per document, with -1
	// for a draw that repeats a tag of the same document. counts[tag]
	// sizes each posting list, so a shard's lists share one backing array.
	// These and the lists themselves are build scratch, reused across
	// shards: the index keeps only the encoded lists.
	tagsPerDoc := max(corpus.TagsPerDoc, 0)
	docTags := make([]int32, perShard*tagsPerDoc)
	counts := make([]int, corpus.Tags)
	postings := make([][]int32, corpus.Tags)
	backing := make([]int32, len(docTags))
	for si := 0; si < shards; si++ {
		sh := &shardIndex{
			docs:  make([]docMeta, 0, perShard),
			start: make([]int64, corpus.Tags+1),
		}
		clear(counts)
		for ord := 0; ord < perShard; ord++ {
			sh.docs = append(sh.docs, docMeta{
				date:    int16(rng.Intn(4000)),
				answers: int16(rng.Intn(160)),
			})
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
		rest := backing
		for t, c := range counts {
			postings[t], rest = rest[:0:c], rest[c:]
		}
		for i, tag := range docTags {
			if tag >= 0 {
				postings[tag] = append(postings[tag], int32(i/tagsPerDoc))
			}
		}
		// Encode every posting list (Lucene-style varint deltas) back to
		// back in ascending tag order, the arena's layout, into a buffer
		// sized exactly: the index stays live while engines use it.
		size := int64(0)
		for t, list := range postings {
			n, err := encodedLen(list)
			if err != nil {
				return nil, fmt.Errorf("search: shard %d tag %d: %w", si, t, err)
			}
			sh.start[t] = size
			size += int64(n)
		}
		sh.start[corpus.Tags] = size
		sh.postings = make([]byte, 0, size)
		for _, list := range postings {
			sh.postings = appendPostings(sh.postings, list)
		}
		ix.shards = append(ix.shards, sh)
	}
	return ix, nil
}

// Indexes builds each index shape a batch of runs needs once, on first
// use, and hands the same Index to every engine of that shape. It is safe
// for concurrent use, so the parallel cells of one figure can share it;
// the indexes live as long as the Indexes value does.
type Indexes struct {
	mu     sync.Mutex
	shapes map[indexShape]*lazyIndex
}

type indexShape struct {
	corpus CorpusConfig
	shards int
}

type lazyIndex struct {
	once sync.Once
	ix   *Index
	err  error
}

// NewIndexes returns an empty index set.
func NewIndexes() *Indexes {
	return &Indexes{shapes: make(map[indexShape]*lazyIndex)}
}

// Get returns the index of `corpus` over `shards` shards, building it on
// the first request for that shape. Concurrent requests for one shape wait
// for a single build.
func (s *Indexes) Get(corpus CorpusConfig, shards int) (*Index, error) {
	key := indexShape{corpus, shards}
	s.mu.Lock()
	l := s.shapes[key]
	if l == nil {
		l = &lazyIndex{}
		s.shapes[key] = l
	}
	s.mu.Unlock()
	l.once.Do(func() { l.ix, l.err = BuildIndex(corpus, shards) })
	return l.ix, l.err
}

// Engine is one search-engine instance (one per server node).
type Engine struct {
	shards []*Shard
	// pool is the search thread pool (Elasticsearch sizes it from the core
	// count).
	poolFree []*worker
	poolSig  *sim.Signal
	// coord is the coordinating (REST) thread.
	coord *mem.Thread
}

// NewEngine builds an instance serving index ix from arenas on host, with
// the given page placement for index memory and a search pool of
// poolThreads threads (48 when non-positive).
func NewEngine(host *core.Host, placer numa.Placer, ix *Index, poolThreads int) (*Engine, error) {
	if poolThreads <= 0 {
		poolThreads = 48
	}
	e := &Engine{poolSig: sim.NewSignal(host.K), coord: host.NewThread(0)}
	for si, six := range ix.shards {
		arena, err := host.Mem.Alloc(six.arenaBytes(), placer)
		if err != nil {
			return nil, fmt.Errorf("search: shard %d arena: %w", si, err)
		}
		e.shards = append(e.shards, &Shard{id: si, arena: arena, shardIndex: six})
	}
	for i := 0; i < poolThreads; i++ {
		e.poolFree = append(e.poolFree, &worker{Thread: host.NewThread(i)})
	}
	return e, nil
}

// worker is one thread of an engine's search pool, with the buffer the
// shard tasks it runs decode posting lists into. A task holds its worker
// from acquireThread to releaseThread, so no two tasks share the buffer.
type worker struct {
	*mem.Thread
	postings []int32
}

func (e *Engine) acquireThread(p *sim.Proc) *worker {
	for len(e.poolFree) == 0 {
		e.poolSig.Wait(p)
	}
	th := e.poolFree[len(e.poolFree)-1]
	e.poolFree = e.poolFree[:len(e.poolFree)-1]
	return th
}

func (e *Engine) releaseThread(w *worker) {
	e.poolFree = append(e.poolFree, w)
	e.poolSig.Wake()
}
