package search

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"thymesisflow/internal/sim"
)

func TestPostingsRoundTrip(t *testing.T) {
	list := []int32{0, 1, 5, 100, 101, 70000, 1 << 30}
	enc, err := encodePostings(list)
	if err != nil {
		t.Fatal(err)
	}
	got := decodePostings(enc)
	if len(got) != len(list) {
		t.Fatalf("decoded %d, want %d", len(got), len(list))
	}
	for i := range list {
		if got[i] != list[i] {
			t.Fatalf("entry %d = %d, want %d", i, got[i], list[i])
		}
	}
}

func TestPostingsCompression(t *testing.T) {
	// A dense list (every doc) encodes at ~1 byte per entry.
	list := make([]int32, 10000)
	for i := range list {
		list[i] = int32(i)
	}
	enc, err := encodePostings(list)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(list)*2 {
		t.Fatalf("dense list encoded to %d bytes for %d entries", len(enc), len(list))
	}
}

func TestPostingsRejectUnsorted(t *testing.T) {
	if _, err := encodePostings([]int32{5, 3}); err == nil {
		t.Fatal("descending list encoded")
	}
	if _, err := encodePostings([]int32{5, 5}); err == nil {
		t.Fatal("duplicate entries encoded")
	}
}

func TestPostingsEmpty(t *testing.T) {
	enc, err := encodePostings(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodePostings(enc); len(got) != 0 {
		t.Fatalf("decoded %v from empty list", got)
	}
}

func TestPostingIteratorProgress(t *testing.T) {
	enc, _ := encodePostings([]int32{10, 300, 70000})
	it := newPostingIterator(enc)
	prev := 0
	for {
		_, ok := it.next()
		if !ok {
			break
		}
		if it.bytesConsumed() <= prev {
			t.Fatal("iterator did not advance")
		}
		prev = it.bytesConsumed()
	}
	if prev != len(enc) {
		t.Fatalf("consumed %d of %d bytes", prev, len(enc))
	}
}

// Property: any set of ordinals (deduplicated, sorted) round-trips, and
// encodedLen predicts the encoding's exact length (index builds size one
// shared buffer by it).
func TestQuickPostingsRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		seen := map[int32]bool{}
		var list []int32
		for _, r := range raw {
			v := int32(r % (1 << 30))
			if !seen[v] {
				seen[v] = true
				list = append(list, v)
			}
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		enc, err := encodePostings(list)
		if err != nil || cap(enc) != len(enc) {
			return false
		}
		got := decodePostings(enc)
		if len(got) != len(list) {
			return false
		}
		for i := range list {
			if got[i] != list[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShardEncodingMatchesTruth(t *testing.T) {
	_, e := newLocalEngine(t, 2)
	docs, postings := referenceCorpus(smallCorpus(), 2)
	for si, sh := range e.Shards() {
		if !slices.Equal(sh.docs, docs[si]) {
			t.Fatalf("shard %d: documents differ from the reference build", si)
		}
		for tag, truth := range postings[si] {
			got := postingsOf(sh, tag)
			if len(got) != len(truth) {
				t.Fatalf("tag %d: decoded %d entries, want %d", tag, len(got), len(truth))
			}
			for i := range truth {
				if got[i] != truth[i] {
					t.Fatalf("tag %d entry %d mismatch", tag, i)
				}
			}
		}
	}
}

func naiveIntersect(a, b []int32) []int32 {
	set := map[int32]bool{}
	for _, v := range a {
		set[v] = true
	}
	var out []int32
	for _, v := range b {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

func TestIntersectPostingsBasics(t *testing.T) {
	a := []int32{1, 3, 5, 7, 9}
	b := []int32{2, 3, 4, 7, 10, 11}
	got := intersectPostings(a, b)
	want := []int32{3, 7}
	if len(got) != len(want) || got[0] != 3 || got[1] != 7 {
		t.Fatalf("intersection = %v, want %v", got, want)
	}
	if out := intersectPostings(nil, b); len(out) != 0 {
		t.Fatalf("empty intersection = %v", out)
	}
	if out := intersectPostings(a, a); len(out) != len(a) {
		t.Fatalf("self intersection = %v", out)
	}
}

// Property: galloping intersection equals the naive set intersection for
// arbitrary sorted unique inputs, in ascending order.
func TestQuickIntersectMatchesNaive(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		mk := func(raw []uint16) []int32 {
			seen := map[int32]bool{}
			var out []int32
			for _, r := range raw {
				v := int32(r)
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := mk(rawA), mk(rawB)
		got := intersectPostings(a, b)
		want := naiveIntersect(a, b)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBooleanAndOnShard(t *testing.T) {
	tb, e := newLocalEngine(t, 1)
	sh := e.Shards()[0]
	const tagA, tagB = 0, 1
	want := len(naiveIntersect(postingsOf(sh, tagA), postingsOf(sh, tagB)))
	got := 0
	tb.Cluster.K.Go("q", func(p *sim.Proc) {
		th := e.acquireThread(p)
		got = sh.RunBooleanAnd(p, th, tagA, tagB)
		e.releaseThread(th)
	})
	tb.Cluster.K.Run()
	if got != want {
		t.Fatalf("AND hits = %d, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("degenerate corpus: hot tags share no docs")
	}
}
