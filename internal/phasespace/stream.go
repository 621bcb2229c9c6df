package phasespace

import (
	"context"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/sim"
)

// Table-free ("streaming") classification of the functional graph of F.
// The dense classifier (classify_concurrent.go) stores the successor table
// plus a full predecessor CSR — about 32 bytes per configuration at its
// peak. The streaming classifier never materializes either: successors are
// regenerated on demand in 64-configuration blocks by the same bit-sliced
// kernels the builders use, and the census-path classification state lives
// in packed bitsets plus 4 bytes per *cycle* state (the sparse rank
// directory) — well under a byte per configuration for threshold rules.
// That trades arithmetic for memory — recompute over store — and is what
// lifts config.MaxEnumNodes past the dense memory wall. The phases:
//
//  1. One blocked sweep counts fixed points and fills the hasPred bitset
//     with atomic word ORs; its complement is the Garden-of-Eden set.
//  2. Cycle detection by image iteration ("bitset peeling"): alive_k =
//     image(F^k), computed as alive ∩ F(alive) per round with whole
//     blocks skipped once their alive word is zero. |alive| is monotone
//     non-increasing, and a popcount plateau proves F restricted to alive
//     is a bijection, i.e. alive is exactly the set of cycle states. The
//     round count is bounded by the longest transient; spaces that exceed
//     streamPeelRounds fall back to synchronous pointer doubling (Jacobi
//     ping-pong, O(log T) rounds of 8 bytes per configuration).
//  3. Cycle extraction walks each cycle once with scalar evaluations,
//     canonicalized and sorted exactly as the dense classifiers do; each
//     cycle state's id lands in a rank directory over the onCycle bitset
//     (4 bytes per cycle state, not per state).
//  4. Transient attribution by level-synchronized reverse sweeps: each
//     round re-evaluates the not-yet-assigned blocks and assigns every
//     configuration whose successor lies in the current frontier. Workers
//     own disjoint 64-aligned block ranges, so the frontier and assigned
//     words are written without atomics. Level d of the sweep is exactly
//     the set of transients at distance d, which is how MaxTransientLen
//     and the incoming-transient flags fall out unchanged. The census
//     pass runs label-free on bitsets alone; the per-state basin label
//     array and the basin sizes — the only O(4·total) structures — are
//     materialized lazily by a second sweep, only when a basin query is
//     actually made.
//
// Censuses, cycle lists, and basin sizes are byte-identical to the dense
// classifiers'; the differential and fuzz suites enforce that.

// succSource regenerates successors of a functional graph on demand: the
// implicit-successor interface behind the streaming classifier. Sources
// must be safe for concurrent sessions and scalar queries.
type succSource interface {
	// size returns the number of states.
	size() uint64
	// one returns F(x) for a single state (the scalar path; used by cycle
	// extraction walks and per-state queries).
	one(x uint64) uint64
	// session returns a single-goroutine block evaluator. eval fills
	// out[l] = F(base+l) for l < min(64, size-base); lanes at or past the
	// end of the space are left undefined. base is always 64-aligned.
	session() *evalSession
}

// evalSession is one worker's checked-out evaluation scratch.
type evalSession struct {
	eval  func(base uint64, out *[64]uint64)
	close func()
}

// tableSource adapts a stored successor table to the succSource interface,
// so a space with a dense table (e.g. a quotient graph) can still use the
// streaming classifier when the classifier arrays are the memory hazard.
type tableSource struct {
	succ []uint32
}

func (t tableSource) size() uint64        { return uint64(len(t.succ)) }
func (t tableSource) one(x uint64) uint64 { return uint64(t.succ[x]) }

func (t tableSource) session() *evalSession {
	return &evalSession{
		eval: func(base uint64, out *[64]uint64) {
			hi := base + 64
			if total := uint64(len(t.succ)); hi > total {
				hi = total
			}
			for x := base; x < hi; x++ {
				out[x-base] = uint64(t.succ[x])
			}
		},
		close: func() {},
	}
}

// kernelSource evaluates F with the build kernels (sim.Batch ring kernel,
// sim.GraphBatch CSR kernel, scalar stepper fallback), reusing the
// filler's per-worker scratch pool. It holds no per-state storage at all.
type kernelSource struct {
	f     *filler
	n     int
	total uint64
}

func newKernelSource(f *filler) *kernelSource {
	n := f.a.N()
	return &kernelSource{f: f, n: n, total: uint64(1) << uint(n)}
}

func (k *kernelSource) size() uint64 { return k.total }

func (k *kernelSource) one(x uint64) uint64 {
	s := k.f.pool.Get().(*fillScratch)
	defer k.f.pool.Put(s)
	var y uint64
	config.SpaceRange(k.n, x, x+1, func(_ uint64, c config.Config) {
		s.st.Step(s.dst, c)
		y = s.dst.Index()
	})
	return y
}

func (k *kernelSource) session() *evalSession {
	s := k.f.pool.Get().(*fillScratch)
	ses := &evalSession{close: func() { k.f.pool.Put(s) }}
	ses.eval = func(base uint64, out *[64]uint64) {
		if base%sim.BatchLanes == 0 && base+sim.BatchLanes <= k.total {
			if s.bk != nil {
				s.bk.Succ64(base, out)
				return
			}
			if s.gk != nil {
				s.gk.Succ64(base, out)
				return
			}
		}
		hi := base + sim.BatchLanes
		if hi > k.total {
			hi = k.total
		}
		config.SpaceRange(k.n, base, hi, func(idx uint64, c config.Config) {
			s.st.Step(s.dst, c)
			out[idx-base] = s.dst.Index()
		})
	}
	return ses
}

// bitset is a packed set over state indices. Concurrent writers use the
// atomic variants; plain access is reserved for owner-partitioned words.
type bitset []uint64

func newBitset(total uint64) bitset { return make(bitset, (total+63)>>6) }

func (b bitset) get(x uint64) bool { return b[x>>6]>>(x&63)&1 == 1 }
func (b bitset) set(x uint64)      { b[x>>6] |= 1 << (x & 63) }

// setAtomic ORs the bit in with a CAS loop (atomic.OrUint64 needs a newer
// go directive than the module's). Already-set bits return without a write,
// which is also the common case in the hot predecessor sweep.
func (b bitset) setAtomic(x uint64) {
	w := &b[x>>6]
	bit := uint64(1) << (x & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 || atomic.CompareAndSwapUint64(w, old, old|bit) {
			return
		}
	}
}

func (b bitset) popcount() uint64 {
	var c uint64
	for _, w := range b {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

// padTail sets the bits at or past total in the final word, so a word of
// all ones means "no live state in this block" even for a partial block.
func (b bitset) padTail(total uint64) {
	if total&63 != 0 && len(b) > 0 {
		b[len(b)-1] |= ^uint64(0) << (total & 63)
	}
}

// streamPeelRounds bounds the image-iteration rounds before cycle
// detection falls back to pointer doubling: generously past the transient
// depths threshold rules exhibit (≤ ~n), so the fallback's 8-byte-per-state
// ping-pong arrays are reserved for adversarial functional graphs.
func streamPeelRounds(n int) int { return 4*n + 64 }

// rankDir maps a member of a bitset to its index among the members: a
// prefix count per word plus a popcount inside the word, 4 bytes per 64
// states.
type rankDir struct {
	words  bitset   // the member bitset (shared, not owned)
	prefix []uint32 // members strictly before each word
}

// newRankDir builds the directory over words and returns it with the
// member count.
func newRankDir(words bitset) (rankDir, uint64) {
	prefix := make([]uint32, len(words))
	var c uint64
	for w, word := range words {
		prefix[w] = uint32(c)
		c += uint64(bits.OnesCount64(word))
	}
	return rankDir{words: words, prefix: prefix}, c
}

// rank returns x's index among the members (x must be a member).
func (r rankDir) rank(x uint64) uint64 {
	w := x >> 6
	return uint64(r.prefix[w]) + uint64(bits.OnesCount64(r.words[w]&(1<<(x&63)-1)))
}

// cycleRank maps a cycle state to its cycle id through a rank directory
// over the onCycle bitset: 4 bytes per cycle state instead of 4 bytes per
// state, which is what keeps the census path's footprint sublinear in
// practice (threshold rules have few periodic states).
type cycleRank struct {
	rankDir
	id []uint32 // cycle id per cycle state, rank-indexed
}

func newCycleRank(onCycle bitset) *cycleRank {
	dir, c := newRankDir(onCycle)
	return &cycleRank{rankDir: dir, id: make([]uint32, c)}
}

// idOf returns the cycle id of cycle state x.
func (r *cycleRank) idOf(x uint64) uint32 { return r.id[r.rank(x)] }

// streamResult is a finished streaming classification.
type streamResult struct {
	hasPred  bitset     // states with at least one predecessor under F
	onCycle  bitset     // states on the periodic part
	rank     *cycleRank // cycle state -> cycle id directory
	incoming []uint32   // per cycle id: 1 when a transient feeds the cycle
	census   Census
	// sizes and label are the lazily materialized basin structures (see
	// streamBasins): nil until the first basin query.
	sizes []uint64 // basin size per cycle id (incl. the cycle states)
	label []uint32 // basin id per state
}

// streamCancelled checks ctx at a coarse stride inside hot loops.
func streamCancelled(ctx context.Context, tick *uint64) bool {
	*tick++
	return *tick&63 == 0 && ctx.Err() != nil
}

// streamClassify runs the four streaming phases. On cancellation the
// partial result is discarded (p.stream stays nil) and the context error
// returned.
func (p *Parallel) streamClassify(ctx context.Context) error {
	total := p.Size()
	src := p.src
	res := &streamResult{}

	// Phase 1: fixed points and the predecessor bitset in one sweep.
	res.hasPred = newBitset(total)
	var fixed atomic.Int64
	shardRange(p.workers, total, func(lo, hi uint64) {
		ses := src.session()
		defer ses.close()
		var out [64]uint64
		var tick uint64
		var f int64
		for base := lo; base < hi; base += 64 {
			if streamCancelled(ctx, &tick) {
				return
			}
			m := hi - base
			if m > 64 {
				m = 64
			}
			ses.eval(base, &out)
			for l := uint64(0); l < m; l++ {
				y := out[l]
				if y == base+l {
					f++
				}
				res.hasPred.setAtomic(y)
			}
		}
		fixed.Add(f)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	res.census.FixedPoints = int(fixed.Load())

	// Phase 2: cycle states.
	if err := p.streamCycleStates(ctx, res); err != nil {
		return err
	}

	// Phase 3: extract and canonicalize the cycles; record each cycle
	// state's id in the sparse rank directory.
	res.rank = newCycleRank(res.onCycle)
	cycles, err := p.streamExtractCycles(ctx, res)
	if err != nil {
		return err
	}

	// Phase 4: transient depth and incoming flags by label-free
	// level-synchronized reverse sweeps (basin labels stay unmaterialized
	// until a basin query asks for them).
	res.incoming = make([]uint32, len(cycles))
	depth, err := p.streamReverseSweep(ctx, res, nil, nil)
	if err != nil {
		return err
	}
	res.census.MaxTransientLen = depth

	onCycle := res.onCycle.popcount()
	res.census.Nodes = p.n
	res.census.Configs = total
	res.census.CycleStates = onCycle - uint64(res.census.FixedPoints)
	res.census.Transients = total - onCycle
	res.census.GardenOfEden = total - res.hasPred.popcount()
	for id, cyc := range cycles {
		if len(cyc) < 2 {
			continue
		}
		res.census.ProperCycles++
		if len(cyc) > res.census.MaxPeriod {
			res.census.MaxPeriod = len(cyc)
		}
		if res.incoming[id] != 0 {
			res.census.CyclesWithIncomingTransients++
		}
	}
	if res.census.MaxPeriod == 0 && res.census.FixedPoints > 0 {
		res.census.MaxPeriod = 1
	}
	p.cycles = cycles
	p.stream = res
	return nil
}

// streamCycleStates fills res.onCycle: image iteration with block
// skipping, falling back to pointer doubling past streamPeelRounds.
func (p *Parallel) streamCycleStates(ctx context.Context, res *streamResult) error {
	total := p.Size()
	src := p.src
	// alive starts as image(F), which phase 1 already computed.
	alive := res.hasPred.clone()
	prev := alive.popcount()
	next := newBitset(total)
	for round := 1; round <= streamPeelRounds(p.n); round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		clear(next)
		// next = F(alive); evaluated blockwise, dead blocks skipped.
		shardRange(p.workers, total, func(lo, hi uint64) {
			ses := src.session()
			defer ses.close()
			var out [64]uint64
			var tick uint64
			for base := lo; base < hi; base += 64 {
				live := alive[base>>6]
				if live == 0 {
					continue
				}
				if streamCancelled(ctx, &tick) {
					return
				}
				ses.eval(base, &out)
				for live != 0 {
					l := uint64(bits.TrailingZeros64(live))
					live &= live - 1
					next.setAtomic(out[l])
				}
			}
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		// alive ∩= next, counting survivors; word ranges are disjoint per
		// shard so the writes need no atomics.
		var count atomic.Uint64
		shardRange(p.workers, uint64(len(alive)), func(lo, hi uint64) {
			var c uint64
			for w := lo; w < hi; w++ {
				alive[w] &= next[w]
				c += uint64(bits.OnesCount64(alive[w]))
			}
			count.Add(c)
		})
		if n := count.Load(); n == prev {
			res.onCycle = alive
			return nil
		} else {
			prev = n
		}
	}
	return p.streamCycleStatesDoubling(ctx, res)
}

// streamCycleStatesDoubling is the adversarial-graph fallback: synchronous
// pointer doubling with ping-pong arrays. After round r, ptr = F^(2^r) and
// img = image(F^(2^r)); a popcount plateau between consecutive rounds
// proves the image is exactly the set of cycle states in O(log T) rounds.
func (p *Parallel) streamCycleStatesDoubling(ctx context.Context, res *streamResult) error {
	total := p.Size()
	src := p.src
	ptr := make([]uint32, total)
	nxt := make([]uint32, total)
	shardRange(p.workers, total, func(lo, hi uint64) {
		ses := src.session()
		defer ses.close()
		var out [64]uint64
		var tick uint64
		for base := lo; base < hi; base += 64 {
			if streamCancelled(ctx, &tick) {
				return
			}
			m := hi - base
			if m > 64 {
				m = 64
			}
			ses.eval(base, &out)
			for l := uint64(0); l < m; l++ {
				ptr[base+l] = uint32(out[l])
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	prev := res.hasPred.popcount() // |image(F^1)|
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		img := newBitset(total)
		shardRange(p.workers, total, func(lo, hi uint64) {
			for x := lo; x < hi; x++ {
				y := ptr[ptr[x]]
				nxt[x] = y
				img.setAtomic(uint64(y))
			}
		})
		ptr, nxt = nxt, ptr
		if n := img.popcount(); n == prev {
			res.onCycle = img
			return nil
		} else {
			prev = n
		}
	}
}

// streamExtractCycles walks every cycle once (serial — cycles are
// disjoint), canonicalizes and sorts them exactly as the dense
// classifiers do, and writes each cycle state's final id into the rank
// directory.
func (p *Parallel) streamExtractCycles(ctx context.Context, res *streamResult) ([][]uint64, error) {
	const unvisited = ^uint32(0)
	src := p.src
	rank := res.rank
	onCycle := res.onCycle
	var cycles [][]uint64
	var tick uint64
	for i := range rank.id {
		rank.id[i] = unvisited
	}
	for w, word := range onCycle {
		if word == 0 {
			continue
		}
		if streamCancelled(ctx, &tick) {
			return nil, ctx.Err()
		}
		for m := word; m != 0; m &= m - 1 {
			start := uint64(w)<<6 | uint64(bits.TrailingZeros64(m))
			if rank.id[rank.rank(start)] != unvisited {
				continue
			}
			ids := []uint64{start}
			rank.id[rank.rank(start)] = 0
			for x := src.one(start); x != start; x = src.one(x) {
				ids = append(ids, x)
				rank.id[rank.rank(x)] = 0
			}
			canonicalizeCycle(ids)
			cycles = append(cycles, ids)
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i][0] < cycles[j][0] })
	for id, cyc := range cycles {
		for _, x := range cyc {
			rank.id[rank.rank(x)] = uint32(id)
		}
	}
	return cycles, nil
}

// streamReverseSweep runs the level-synchronized reverse sweeps: round d
// discovers exactly the transients at distance d from the periodic part,
// and the last non-empty round is the longest transient. With nil label
// the sweep tracks membership in bitsets alone and flags cycles with
// distance-1 predecessors in res.incoming (the census pass); with a label
// array (seeded with the cycle states' ids) it additionally propagates
// basin ids and accumulates sizes — the 4-bytes-per-state variant reserved
// for streamBasins.
func (p *Parallel) streamReverseSweep(ctx context.Context, res *streamResult, label []uint32, sizes []uint64) (int, error) {
	total := p.Size()
	src := p.src
	assigned := res.onCycle.clone()
	assigned.padTail(total)
	frontier := res.onCycle.clone()
	nextFrontier := newBitset(total)
	maxDepth := 0
	for depth := 1; ; depth++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		clear(nextFrontier)
		var discovered atomic.Uint64
		shardRange(p.workers, total, func(lo, hi uint64) {
			ses := src.session()
			defer ses.close()
			var out [64]uint64
			var tick uint64
			var found uint64
			for base := lo; base < hi; base += 64 {
				w := base >> 6
				todo := ^assigned[w]
				if todo == 0 {
					continue
				}
				if streamCancelled(ctx, &tick) {
					return
				}
				ses.eval(base, &out)
				var hit uint64
				for m := todo; m != 0; m &= m - 1 {
					l := uint64(bits.TrailingZeros64(m))
					y := out[l]
					if !frontier.get(y) {
						continue
					}
					hit |= 1 << l
					if label != nil {
						id := label[y]
						label[base+l] = id
						atomic.AddUint64(&sizes[id], 1)
					} else if depth == 1 {
						atomic.StoreUint32(&res.incoming[res.rank.idOf(y)], 1)
					}
				}
				if hit != 0 {
					// This worker owns [lo, hi), so the word updates are
					// plain stores.
					assigned[w] |= hit
					nextFrontier[w] |= hit
					found += uint64(bits.OnesCount64(hit))
				}
			}
			if found != 0 {
				discovered.Add(found)
			}
		})
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if discovered.Load() == 0 {
			return maxDepth, nil
		}
		maxDepth = depth
		frontier, nextFrontier = nextFrontier, frontier
	}
}

// streamBasins materializes the per-state basin label array and the basin
// sizes with a second (labeled) reverse sweep, caching both on the
// result. This is the only streaming structure costing 4 bytes per
// configuration, so it is paid only when a basin query is actually made —
// censuses, cycle lists, and Garden-of-Eden queries never trigger it.
func (p *Parallel) streamBasins() *streamResult {
	p.classify()
	res := p.stream
	if res.sizes != nil {
		return res
	}
	total := p.Size()
	label := make([]uint32, total)
	var r uint64
	for w, word := range res.onCycle {
		for m := word; m != 0; m &= m - 1 {
			x := uint64(w)<<6 | uint64(bits.TrailingZeros64(m))
			label[x] = res.rank.id[r]
			r++
		}
	}
	sizes := make([]uint64, len(p.cycles))
	for id, cyc := range p.cycles {
		sizes[id] = uint64(len(cyc))
	}
	// A background context never cancels, so the error is unreachable.
	_, _ = p.streamReverseSweep(context.Background(), res, label, sizes)
	res.label, res.sizes = label, sizes
	return res
}
