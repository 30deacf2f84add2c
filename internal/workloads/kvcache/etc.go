package kvcache

import (
	"math"
	"math/rand"
)

// ETCConfig shapes the load generator after the statistical models of the
// Facebook "ETC" Memcached pool (Atikoglu et al., SIGMETRICS'12), as the
// paper's evaluation does (Section VI-E).
type ETCConfig struct {
	Seed int64
	// Keys is the key-space size in distinct keys. The paper uses a 15 GiB
	// key space against a 10 GiB cache; the simulation preserves the ratio
	// at a reduced scale.
	Keys int64
	// ZipfExponent skews key popularity (paper: 1.0, following Breslau et
	// al.'s web-caching observations).
	ZipfExponent float64
	// GetToSet is the GET:SET ratio (paper/ETC: 30:1).
	GetToSet int
	// MeanValueBytes centers the lognormal value-size distribution; ETC
	// values are predominantly small.
	MeanValueBytes float64
}

// DefaultETCConfig returns the paper's workload parameters.
func DefaultETCConfig(keys int64) ETCConfig {
	return ETCConfig{
		Seed:           42,
		Keys:           keys,
		ZipfExponent:   1.0,
		GetToSet:       30,
		MeanValueBytes: 440,
	}
}

// Zipf samples ranks in [1, N] with probability proportional to 1/rank^s.
// It supports s <= 1 (which math/rand's Zipf does not) via inverse-CDF
// sampling on the continuous approximation, which is accurate for the large
// N used here.
type Zipf struct {
	rng *rand.Rand
	n   float64
	s   float64
	// precomputed ln(n) for the s == 1 branch
	logN float64
	// precomputed normalization for the s != 1 branch
	pow float64
}

// NewZipf builds a sampler over [1, n].
func NewZipf(rng *rand.Rand, n int64, s float64) *Zipf {
	z := &Zipf{rng: rng, n: float64(n), s: s}
	if s != 1.0 {
		z.pow = math.Pow(z.n, 1-s)
	} else {
		z.logN = math.Log(z.n)
	}
	return z
}

// Next returns the next rank in [1, n].
func (z *Zipf) Next() int64 {
	u := z.rng.Float64()
	var k float64
	if z.s == 1.0 {
		// F(k) = ln(k)/ln(n)  =>  k = n^u
		k = math.Exp(u * z.logN)
	} else {
		// F(k) = (k^(1-s)-1)/(n^(1-s)-1)
		k = math.Pow(u*(z.pow-1)+1, 1/(1-z.s))
	}
	r := int64(k)
	if r < 1 {
		r = 1
	}
	if r > int64(z.n) {
		r = int64(z.n)
	}
	return r
}

// keyID maps a popularity rank to a key identifier. Ranks are scattered
// through the identifier space so that popular keys are not physically
// adjacent in the arena.
func keyID(rank int64) uint64 {
	x := uint64(rank)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sizeSigma is the shape of the lognormal value-size distribution.
const sizeSigma = 0.8

// sizeMu returns the location of the lognormal value-size distribution
// whose mean is cfg.MeanValueBytes.
func sizeMu(cfg ETCConfig) float64 {
	return math.Log(cfg.MeanValueBytes) - sizeSigma*sizeSigma/2
}

// valueSize returns the deterministic value size of a key: lognormal (with
// location mu, from sizeMu) by key hash, clamped to the slab range. Sizes
// are a property of the key so repeated SETs stay consistent.
func valueSize(mu float64, key uint64) int64 {
	// Two uniform doubles from the key hash drive a Box-Muller normal.
	h1 := float64((key>>11)&0xFFFFFFFF) / float64(1<<32)
	h2 := float64((key*0x9E3779B97F4A7C15)>>32&0xFFFFFFFF) / float64(1<<32)
	if h1 < 1e-12 {
		h1 = 1e-12
	}
	norm := math.Sqrt(-2*math.Log(h1)) * math.Cos(2*math.Pi*h2)
	size := int64(math.Exp(mu + sizeSigma*norm))
	if size < 16 {
		size = 16
	}
	if max := slabClasses[len(slabClasses)-1] - itemOverhead; size > max {
		size = max
	}
	return size
}

// Op is one generated request.
type Op struct {
	Key   uint64
	Size  int64 // value size (used by SETs)
	IsGet bool
}

// Generator produces the ETC request stream for one client thread.
type Generator struct {
	cfg  ETCConfig
	rng  *rand.Rand
	zipf *Zipf
	mu   float64 // sizeMu(cfg)
}

// NewGenerator builds a thread-local generator (seed should differ per
// thread).
func NewGenerator(cfg ETCConfig, threadSeed int64) *Generator {
	rng := rand.New(rand.NewSource(cfg.Seed + threadSeed*7919))
	return &Generator{cfg: cfg, rng: rng, zipf: NewZipf(rng, cfg.Keys, cfg.ZipfExponent), mu: sizeMu(cfg)}
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	key, isGet := g.nextKey()
	return Op{Key: key, Size: valueSize(g.mu, key), IsGet: isGet}
}

// nextKey draws the next operation's key and kind without sizing its
// value: it takes the same random draws as Next, so a caller that discards
// the key skips only the size maths.
func (g *Generator) nextKey() (key uint64, isGet bool) {
	key = keyID(g.zipf.Next())
	return key, g.rng.Intn(g.cfg.GetToSet+1) != 0
}
