package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"

	"repro/internal/obs"
)

// now is the benchmark's clock: the runtime's monotonic nanosecond counter.
func now() int64 { return obs.Nanotime() }

// samples holds per-operation latencies in nanoseconds.
type samples []int64

// quantile returns the nearest-rank q-quantile in nanoseconds (0 when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	k := int(math.Ceil(q*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(c[k])
}

// segments is how many consecutive pieces of a run's samples the reported
// percentiles are taken over.
const segments = 9

// segmentedMs returns, in milliseconds, the median over segments
// consecutive pieces of s (in measurement order) of each piece's
// q-quantile. A burst of contention from other tenants of the host then
// moves one or two pieces, not the run's figure. Below 10 samples a piece
// it is the plain quantile.
func (s samples) segmentedMs(q float64) float64 {
	if len(s) < 10*segments {
		return s.quantile(q) / 1e6
	}
	per := make(samples, segments)
	for i := range per {
		per[i] = int64(s[i*len(s)/segments : (i+1)*len(s)/segments].quantile(q))
	}
	return per.quantile(0.5) / 1e6
}

func (s samples) p50ms() float64 { return s.segmentedMs(0.5) }
func (s samples) p90ms() float64 { return s.segmentedMs(0.9) }

// memProbe reads the runtime's cumulative allocation counter and tracks the
// largest heap the garbage collector has found live. It uses
// runtime/metrics, which does not stop the world, so it can be sampled
// between operations.
type memProbe struct {
	s        []metrics.Sample
	peak     uint64
	lastRead int64
}

func newMemProbe() *memProbe {
	return &memProbe{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

// allocated returns the bytes allocated since the process started.
func (m *memProbe) allocated() uint64 {
	metrics.Read(m.s)
	m.notePeak()
	return m.s[0].Value.Uint64()
}

// sample records the live heap, at most once per 200µs of t.
func (m *memProbe) sample(t int64) {
	if t-m.lastRead < 200_000 {
		return
	}
	m.lastRead = t
	metrics.Read(m.s[1:])
	m.notePeak()
}

func (m *memProbe) notePeak() {
	if v := m.s[1].Value.Uint64(); v > m.peak {
		m.peak = v
	}
}

func (m *memProbe) peakMB() float64 { return float64(m.peak) / (1 << 20) }

// counters is a snapshot, or a window's difference, of the obs registry's
// counters.
type counters map[string]uint64

func readCounters() counters { return obs.Default.Snapshot().Counters }

// add accumulates the difference after−before into w.
func (w counters) add(before, after counters) {
	for name, v := range after {
		w[name] += v - before[name]
	}
}

// get returns one counter as a float64.
func (w counters) get(name string) float64 { return float64(w[name]) }

// orbClientCalls sums the per-method client call counters.
func (w counters) orbClientCalls() float64 {
	var n float64
	for name, v := range w {
		if strings.HasPrefix(name, "orb.client.method.") && strings.HasSuffix(name, ".calls") {
			n += float64(v)
		}
	}
	return n
}

// orbRetries counts supervised retries, redials and server sheds.
func (w counters) orbRetries() float64 {
	return w.get("orb.supervised.retries") + w.get("orb.supervised.redials") + w.get("orb.server.shed")
}

// gate lets rank 0 decide, batch by batch, whether every rank of an
// in-process cohort runs another batch of steps. The decision travels on
// Go channels, outside the communicator, so it adds no traffic to the
// counters a window reads.
type gate struct{ ch []chan bool }

func newGate(p int) *gate {
	g := &gate{ch: make([]chan bool, p)}
	for i := range g.ch {
		// One pending decision per rank: rank 0 is never more than one
		// batch ahead, because every step ends in a collective.
		g.ch[i] = make(chan bool, 1)
	}
	return g
}

// next returns whether to run another batch. Rank 0 supplies the decision
// in more; the other ranks' argument is ignored.
func (g *gate) next(rank int, more bool) bool {
	if rank == 0 {
		for _, c := range g.ch[1:] {
			c <- more
		}
		return more
	}
	return <-g.ch[rank]
}

// stepBatch is how many steps run between two gate decisions.
const stepBatch = 8
