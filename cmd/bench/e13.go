package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/array"
	"repro/internal/cca/collective"
	dcollective "repro/internal/dist/collective"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

// E13 — high-fan-out serving tier: epoch snapshot cache, broadcast
// fan-out, and admission control.
//
// The paper's attach scenario (§2.2) has a handful of viz tools pulling a
// running simulation's field; this experiment pushes that to serving-tier
// scale: a thousand standing supervised subscribers pulling the
// 1e6-double array through the epoch cache. Three phases:
//
//  1. baseline — 16 subscribers, per-pull latency distribution;
//  2. fan-out — `subs` standing supervised connections pulling in a
//     bounded window (16 concurrent, the baseline's concurrency) across
//     generations, so the p99 comparison isolates serving-tier overhead
//     from raw queueing; the frame-cache hit rate over the phase is
//     asserted > 90%;
//  3. overload — a MaxInflight-throttled server under unpaced concurrent
//     pulls: the typed ErrOverloaded shed and the supervised clients'
//     backoff-without-redial are asserted through the obs counters.
//
// Acceptance: fan-out p99 within 2× of the 16-subscriber p99, hit rate
// > 90%, sheds > 0 and overload backoffs > 0 with every pull completing.

func e13() {
	gl, subs := 1_000_000, 1000
	if *quick {
		gl, subs = 100_000, 96
	}
	const window = 16

	srcMap := array.NewBlockMap(gl, 2)
	ports := make([]collective.DistArrayPort, srcMap.Ranks())
	for r := range ports {
		data := make([]float64, srcMap.LocalLen(r))
		for i := range data {
			data[i] = float64(r*1000 + i%97)
		}
		ports[r] = &benchDistPort{side: collective.Side{Map: srcMap}, data: data}
	}
	oa := orb.NewObjectAdapter()
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	check(err)
	srv := orb.Serve(oa, l)
	defer srv.Stop()
	pub, err := dcollective.Publish(oa, "field", ports)
	check(err)
	defer pub.Close()

	// Pull buffers are shared through a pool sized to the concurrency
	// window — a thousand private 8 MB buffers would dwarf the tier
	// under test.
	bufs := make(chan []float64, window)
	for i := 0; i < window; i++ {
		bufs <- make([]float64, gl)
	}

	waves := 3
	fmt.Printf("array: %d doubles (%.1f MiB), window=%d, waves=%d\n",
		gl, 8*float64(gl)/(1<<20), window, waves)

	// Phase 1 — baseline: 16 supervised subscribers.
	base := e13Attach(srv.Addr(), gl, window)
	e13Wave(base, bufs, window) // warm: plan exchange + first epoch pack
	var baseLat []time.Duration
	for w := 0; w < waves; w++ {
		pub.Advance()
		baseLat = append(baseLat, e13Wave(base, bufs, window)...)
	}
	b50, b99 := e13Quantiles(baseLat)
	record("e13", fmt.Sprintf("baseline/subs=%d/p50", window), float64(b50.Nanoseconds()), -1)
	record("e13", fmt.Sprintf("baseline/subs=%d/p99", window), float64(b99.Nanoseconds()), -1)
	fmt.Printf("%-34s p50 %8.2f ms   p99 %8.2f ms\n",
		fmt.Sprintf("baseline %d subscribers", window), ms(b50), ms(b99))

	// Phase 2 — fan-out: `subs` standing supervised connections.
	t0 := time.Now()
	fan := e13Attach(srv.Addr(), gl, subs)
	attachDur := time.Since(t0)
	record("e13", fmt.Sprintf("fanout/subs=%d/attach", subs), float64(attachDur.Nanoseconds()), -1)
	fmt.Printf("%-34s %8.2f ms\n", fmt.Sprintf("attach %d subscribers", subs), ms(attachDur))

	pub.Advance()
	e13Wave(fan, bufs, window) // warm the new generation
	before := obs.Default.Snapshot().Counters
	var fanLat []time.Duration
	for w := 0; w < waves; w++ {
		pub.Advance()
		fanLat = append(fanLat, e13Wave(fan, bufs, window)...)
	}
	after := obs.Default.Snapshot().Counters
	f50, f99 := e13Quantiles(fanLat)
	ratio := float64(f99) / float64(b99)
	record("e13", fmt.Sprintf("fanout/subs=%d/p50", subs), float64(f50.Nanoseconds()), -1)
	record("e13", fmt.Sprintf("fanout/subs=%d/p99", subs), float64(f99.Nanoseconds()), -1)
	record("e13", fmt.Sprintf("fanout/subs=%d/p99-vs-16", subs), ratio, -1)
	fmt.Printf("%-34s p50 %8.2f ms   p99 %8.2f ms   (p99 %.2fx of baseline)\n",
		fmt.Sprintf("fan-out %d subscribers", subs), ms(f50), ms(f99), ratio)

	hits := after["collective.frame_cache_hits"] - before["collective.frame_cache_hits"]
	misses := after["collective.frame_cache_misses"] - before["collective.frame_cache_misses"]
	hitRate := 100 * float64(hits) / float64(hits+misses)
	record("e13", "fanout/frame_cache_hit_pct", hitRate, -1)
	fmt.Printf("%-34s %8.1f %%   (%d hits / %d misses)\n", "frame cache hit rate", hitRate, hits, misses)
	if hitRate <= 90 {
		check(fmt.Errorf("e13: frame cache hit rate %.1f%% under the 90%% floor", hitRate))
	}
	for _, imp := range fan {
		imp.Close()
	}
	for _, imp := range base {
		imp.Close()
	}

	// Phase 3 — overload injection on a throttled server.
	e13Overload()
	fmt.Println("\ntarget: fan-out p99 within 2x of the 16-subscriber p99; hit rate > 90%")
}

// e13Attach dials n standing supervised subscribers of the whole array.
func e13Attach(addr string, gl, n int) []*dcollective.Import {
	imps := make([]*dcollective.Import, n)
	cmap := array.NewSerialMap(gl)
	for i := range imps {
		imp, err := dcollective.Attach(transport.TCP{}, addr, "field", cmap, dcollective.Options{})
		check(err)
		imps[i] = imp
	}
	return imps
}

// e13Wave has every subscriber pull the current epoch once, at most
// `window` concurrently, and returns each pull's service latency
// (measured from window admission, so queue wait is excluded — the
// comparison is per-pull serving cost, not closed-loop sojourn time).
func e13Wave(imps []*dcollective.Import, bufs chan []float64, window int) []time.Duration {
	lat := make([]time.Duration, len(imps))
	done := make(chan int, len(imps))
	for i, imp := range imps {
		go func(i int, imp *dcollective.Import) {
			buf := <-bufs
			t0 := time.Now()
			if err := imp.PullContext(context.Background(), 0, buf); err != nil {
				panic(fmt.Sprintf("e13 pull: %v", err))
			}
			lat[i] = time.Since(t0)
			bufs <- buf
			done <- i
		}(i, imp)
	}
	for range imps {
		<-done
	}
	return lat
}

// e13Overload saturates a MaxInflight=2 server with 16 unpaced
// subscribers and asserts the shed/backoff machinery end to end: typed
// refusals on the server, backoff-without-redial on the clients, and
// every pull completing anyway.
func e13Overload() {
	const gl, subs = 4096, 16
	srcMap := array.NewBlockMap(gl, 2)
	ports := make([]collective.DistArrayPort, srcMap.Ranks())
	for r := range ports {
		ports[r] = &benchDistPort{side: collective.Side{Map: srcMap}, data: make([]float64, srcMap.LocalLen(r))}
	}
	oa := orb.NewObjectAdapter()
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	check(err)
	srv := orb.ServeWith(oa, l, orb.ServeOptions{MaxInflight: 2})
	defer srv.Stop()
	pub, err := dcollective.Publish(oa, "field", ports)
	check(err)
	defer pub.Close()

	opts := dcollective.Options{Supervisor: orb.SupervisorOptions{
		RetryBase:   time.Millisecond,
		RetryCap:    20 * time.Millisecond,
		MaxAttempts: 20,
	}}
	imps := make([]*dcollective.Import, subs)
	for i := range imps {
		imp, err := dcollective.Attach(transport.TCP{}, srv.Addr(), "field", array.NewSerialMap(gl), opts)
		check(err)
		defer imp.Close()
		imps[i] = imp
	}

	before := obs.Default.Snapshot().Counters
	done := make(chan error, subs)
	for _, imp := range imps {
		go func(imp *dcollective.Import) {
			buf := make([]float64, gl)
			deadline := time.Now().Add(30 * time.Second)
			for {
				err := imp.PullContext(context.Background(), 0, buf)
				if err == nil || !orb.IsOverloaded(err) || time.Now().After(deadline) {
					done <- err
					return
				}
				// Attempt budget exhausted while shed: keep going — the
				// point is that overload is retryable, not fatal.
			}
		}(imp)
	}
	for range imps {
		check(<-done)
	}
	after := obs.Default.Snapshot().Counters
	sheds := after["orb.server.shed"] - before["orb.server.shed"]
	backoffs := after["orb.supervised.overload_backoffs"] - before["orb.supervised.overload_backoffs"]
	redials := after["orb.supervised.redials"] - before["orb.supervised.redials"]
	record("e13", "overload/sheds", float64(sheds), -1)
	record("e13", "overload/backoffs", float64(backoffs), -1)
	record("e13", "overload/redials", float64(redials), -1)
	fmt.Printf("%-34s sheds %d   backoffs %d   redials %d   (all %d pulls completed)\n",
		"overload (MaxInflight=2, unpaced)", sheds, backoffs, redials, subs)
	if sheds == 0 || backoffs == 0 {
		check(fmt.Errorf("e13: overload injection did not fire (sheds=%d backoffs=%d)", sheds, backoffs))
	}
	if redials != 0 {
		check(fmt.Errorf("e13: overload caused %d redials; shed must keep the connection", redials))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func e13Quantiles(lat []time.Duration) (p50, p99 time.Duration) {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q := func(p float64) time.Duration {
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	return q(0.50), q(0.99)
}
