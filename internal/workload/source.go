package workload

import "math/rand"

// This file is math/rand's Go 1 source — an additive lagged Fibonacci
// generator over 607 words with its tap 273 behind — seeded lazily.
// rand.Source.Seed fills all 607 words, 1 841 steps of a Lehmer generator,
// and an event then draws about five numbers. Here Seed only records the
// seed: initial word i is computed when a draw first reads it, by jumping
// the Lehmer sequence ahead (x_k = seed·48271^k mod 2³¹−1, the powers
// tabled once) and XORing math/rand's cooked table, which init recovers
// from rand.NewSource(1)'s output. The stream is rand.New(rand.NewSource
// (seed))'s for every seed and any number of draws
// (TestLazySourceMatchesMathRand).

const (
	rngLen    = 607
	rngTap    = 273
	lehmerMod = 1<<31 - 1
)

var (
	// jump[i] holds 48271^k mod 2³¹−1 for the three Lehmer steps
	// k = 21+3i, 22+3i, 23+3i that make initial word i.
	jump [rngLen][3]uint64
	// cooked is math/rand's table of words XORed into the seeded state.
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= 20+3*rngLen; k++ {
		p = p * 48271 % lehmerMod
		if k > 20 {
			jump[(k-21)/3][(k-21)%3] = p
		}
	}
	// Output k of a fresh source is its feed word 333−k (mod 607), still
	// initial, plus its tap word 273 further on, which output k−273 has
	// replaced when k ≥ 273 and which is still initial before. So the
	// outputs from 273 on give the words from 334 up and the rest of the
	// outputs the others; seed 1's Lehmer words XORed away leave the table.
	src := rand.NewSource(1).(rand.Source64)
	var out, word [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		word[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		word[feed(k)] = out[k] - word[(feed(k)+rngTap)%rngLen]
	}
	for i := range cooked {
		cooked[i] = word[i] ^ lehmerWords(1, i)
	}
}

// lehmerWords is initial word i of a source seeded to x0 before the
// cooked table: three Lehmer draws packed as rand's seeding packs them.
func lehmerWords(x0 uint64, i int) int64 {
	j := &jump[i]
	return int64(x0*j[0]%lehmerMod)<<40 ^ int64(x0*j[1]%lehmerMod)<<20 ^ int64(x0*j[2]%lehmerMod)
}

// lazySource is a rand.Source64. vec[i] is the live word i only when
// at[i] is the current seeding generation; otherwise word i is still
// initial and computed on read.
type lazySource struct {
	x0        uint64 // the seed reduced to [1, 2³¹−1)
	gen       uint32
	tap, feed int
	at        [rngLen]uint32
	vec       [rngLen]int64
}

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed reduces seed as math/rand does and starts a new generation.
func (s *lazySource) Seed(seed int64) {
	if seed %= lehmerMod; seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.tap, s.feed = uint64(seed), 0, rngLen-rngTap
	if s.gen++; s.gen == 0 { // wrapped: old marks would read as current
		s.at, s.gen = [rngLen]uint32{}, 1
	}
}

func (s *lazySource) word(i int) int64 {
	if s.at[i] == s.gen {
		return s.vec[i]
	}
	return lehmerWords(s.x0, i) ^ cooked[i]
}

func (s *lazySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed], s.at[s.feed] = x, s.gen
	return uint64(x)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
