package collective

// Tests for the epoch-cache serving tier: plan dedup across subscribers,
// epoch stability until Advance, the frame-cache hit rate asserted through
// the obs counters, stale-plan recovery after LRU eviction, and the chaos
// case of one subscriber severed mid-broadcast while others keep pulling.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

func counters() map[string]uint64 { return obs.Default.Snapshot().Counters }

var errDataCorrupt = errors.New("pulled data corrupted")

// TestCachePlanDedup checks that subscribers announcing the same consumer
// distribution share one provider-side plan (same planID) while a
// different distribution gets its own.
func TestCachePlanDedup(t *testing.T) {
	const gl = 100
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-dedup", "wave", cohort(array.NewBlockMap(gl, 2), make([]float64, gl)))
	defer srv.Stop()
	defer pub.Close()

	before := counters()
	a, err := Attach(tr, "cache-dedup", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Attach(tr, "cache-dedup", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.planID != b.planID {
		t.Fatalf("identical distributions got plans %d and %d, want shared", a.planID, b.planID)
	}
	c, err := Attach(tr, "cache-dedup", "wave", array.NewBlockMap(gl, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.planID == a.planID {
		t.Fatal("distinct distribution shares a plan")
	}
	after := counters()
	if got := after["collective.plan_cache_hits"] - before["collective.plan_cache_hits"]; got < 1 {
		t.Fatalf("plan_cache_hits grew by %d, want >= 1", got)
	}
}

// TestCacheEpochStableUntilAdvance pins the cache-mode contract: pulls
// between Advance calls observe one immutable snapshot even while the
// provider mutates its arrays, and Advance opens the next snapshot.
func TestCacheEpochStableUntilAdvance(t *testing.T) {
	const gl = 64
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i)
	}
	m := array.NewBlockMap(gl, 2)
	ports := cohort(m, global)
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-epoch", "wave", ports)
	defer srv.Stop()
	defer pub.Close()

	imp, err := Attach(tr, "cache-epoch", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	out := make([]float64, gl)
	if err := imp.Pull(0, out); err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(out, global) {
		t.Fatal("first pull wrong")
	}

	// Mutate every provider rank in place — the published epoch must not
	// see it until Advance.
	for _, p := range ports {
		data := p.(*memPort).data
		for i := range data {
			data[i] += 1000
		}
	}
	before := counters()
	if err := imp.Pull(0, out); err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(out, global) {
		t.Fatal("pull between Advances leaked a mid-generation write")
	}
	after := counters()
	if got := after["collective.epoch_cache_hits"] - before["collective.epoch_cache_hits"]; got < 1 {
		t.Fatalf("epoch_cache_hits grew by %d, want >= 1", got)
	}

	pub.Advance()
	if err := imp.Pull(0, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != global[i]+1000 {
			t.Fatalf("post-Advance element %d = %v, want %v", i, out[i], global[i]+1000)
		}
	}
	post := counters()
	if got := post["collective.epoch_cache_misses"] - after["collective.epoch_cache_misses"]; got < 1 {
		t.Fatalf("Advance did not force a fresh snapshot (misses grew by %d)", got)
	}
}

// TestSupersededEpochServesFromSnapshot pins what a pull still in flight
// across an Advance sees: the next generation's snapshot releases the old
// epoch's frame cache, yet chunk calls on the old epoch keep returning its
// own data, never the newer generation's.
func TestSupersededEpochServesFromSnapshot(t *testing.T) {
	const gl = 16
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i)
	}
	ports := cohort(array.NewBlockMap(gl, 1), global)
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-superseded", "wave", ports)
	defer srv.Stop()
	defer pub.Close()
	c := rawClient(t, tr, "cache-superseded")
	defer c.Close()
	key := Key("wave")
	res, err := c.Invoke(key, "exchange", int32(gl), []int32{0, gl, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	planID := res[0].(int64)
	begin := func() int64 {
		t.Helper()
		res, err := c.Invoke(key, "begin", planID)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].(int64)
	}
	elem3 := func(epoch int64) float64 {
		t.Helper()
		res, err := c.Invoke(key, "chunk", planID, epoch, int32(0), int32(0), int32(0), int32(gl))
		if err != nil {
			t.Fatal(err)
		}
		return res[0].([]float64)[3]
	}

	old := begin()
	if got := elem3(old); got != 3 { // packs and caches the frame
		t.Fatalf("first generation elem 3 = %v", got)
	}
	ports[0].(*memPort).data[3] = 99
	pub.Advance()
	fresh := begin()
	if got := elem3(old); got != 3 {
		t.Fatalf("superseded epoch elem 3 = %v, want its own 3", got)
	}
	if got := elem3(fresh); got != 99 {
		t.Fatalf("fresh epoch elem 3 = %v, want 99", got)
	}
}

// TestCacheFrameHitRate repeats pulls under one frozen generation and
// asserts the steady-state frame-cache hit rate the serving tier is built
// around: every subscriber after the first pack is served from cache.
func TestCacheFrameHitRate(t *testing.T) {
	const gl = 512
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) * 0.25
	}
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-rate", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Stop()
	defer pub.Close()

	// Small chunks so each pull issues several frame requests.
	imp, err := Attach(tr, "cache-rate", "wave", array.NewSerialMap(gl), Options{ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()

	before := counters()
	out := make([]float64, gl)
	const pulls = 40
	for i := 0; i < pulls; i++ {
		if err := imp.Pull(0, out); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
		if !floatsEqual(out, global) {
			t.Fatalf("pull %d corrupted", i)
		}
	}
	after := counters()
	hits := after["collective.frame_cache_hits"] - before["collective.frame_cache_hits"]
	misses := after["collective.frame_cache_misses"] - before["collective.frame_cache_misses"]
	if hits+misses == 0 {
		t.Fatal("no frame-cache traffic recorded")
	}
	if rate := float64(hits) / float64(hits+misses); rate <= 0.9 {
		t.Fatalf("frame cache hit rate %.1f%% (%d hits / %d misses), want > 90%%",
			100*rate, hits, misses)
	}
}

// TestCacheStalePlanAfterEviction evicts a subscriber's plan by churning
// maxPlans distinct distributions through the publisher, then checks the
// subscriber's next pull heals through the stale-plan sentinel: a
// transparent re-exchange onto a fresh plan, correct data, no error.
func TestCacheStalePlanAfterEviction(t *testing.T) {
	const gl = 240
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) + 0.5
	}
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "cache-evict", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Stop()
	defer pub.Close()

	imp, err := Attach(tr, "cache-evict", "wave", array.NewSerialMap(gl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	oldPlan := imp.planID

	// maxPlans+1 distinct consumer distributions push the first plan out
	// of the LRU (and its digest out of the dedup table).
	for r := 2; r <= maxPlans+2; r++ {
		other, err := Attach(tr, "cache-evict", "wave", array.NewBlockMap(gl, r), Options{})
		if err != nil {
			t.Fatalf("churn attach ranks=%d: %v", r, err)
		}
		other.Close()
	}

	out := make([]float64, gl)
	if err := imp.Pull(0, out); err != nil {
		t.Fatalf("pull after plan eviction: %v", err)
	}
	if !floatsEqual(out, global) {
		t.Fatal("post-eviction pull returned wrong data")
	}
	if imp.planID == oldPlan {
		t.Fatalf("pull succeeded without re-exchange; plan %d should have been evicted", oldPlan)
	}
}

// TestCacheSeveredSubscriberDoesNotStallOthers is the chaos case: one
// subscriber's connection is severed mid-broadcast while two healthy
// subscribers keep pulling the same cached epochs. The healthy pulls must
// all complete with intact data, and the severed subscriber must heal
// through its supervisor and finish too.
func TestCacheSeveredSubscriberDoesNotStallOthers(t *testing.T) {
	const gl = 20000
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) * 0.5
	}
	inner := transport.TCP{}
	srv, pub := serve(t, inner, "127.0.0.1:0", "wave", cohort(array.NewBlockMap(gl, 2), global))
	defer srv.Stop()
	defer pub.Close()
	addr := srv.Addr()

	faulty := transport.NewFaulty(inner, transport.Faults{SeverAfterSends: 20})
	var clearOnce sync.Once
	victimOpts := Options{
		ChunkBytes: 512, // many chunk calls, so the sever lands mid-pull
		Supervisor: orb.SupervisorOptions{
			RetryBase:   time.Millisecond,
			RetryCap:    20 * time.Millisecond,
			MaxAttempts: 8,
			OnState: func(s orb.ConnState, _ error) {
				if s == orb.StateDegraded {
					clearOnce.Do(func() { faulty.SetFaults(transport.Faults{}) })
				}
			},
		},
	}

	victim, err := Attach(faulty, addr, "wave", array.NewSerialMap(gl), victimOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	const healthy = 2
	imps := make([]*Import, healthy)
	for i := range imps {
		imp, err := Attach(inner, addr, "wave", array.NewSerialMap(gl), Options{ChunkBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer imp.Close()
		imps[i] = imp
	}

	var wg sync.WaitGroup
	errs := make(chan error, healthy+1)
	for _, imp := range imps {
		wg.Add(1)
		go func(imp *Import) {
			defer wg.Done()
			out := make([]float64, gl)
			for i := 0; i < 5; i++ {
				if err := imp.PullContext(context.Background(), 0, out); err != nil {
					errs <- err
					return
				}
				if !floatsEqual(out, global) {
					errs <- errDataCorrupt
					return
				}
			}
		}(imp)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]float64, gl)
		if err := victim.PullContext(context.Background(), 0, out); err != nil {
			errs <- err
			return
		}
		if !floatsEqual(out, global) {
			errs <- errDataCorrupt
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if faulty.Stats().Severs == 0 {
		t.Fatal("fault plan never fired; test proved nothing")
	}
}
