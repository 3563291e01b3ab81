package main

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// options are one run's parameters.
type options struct {
	seed    uint64
	seconds float64 // length of the measured phases together
	trace   bool
	scale   int    // population divisor: 1, or 10 for -smoke
	tmp     string // where broker data directories go
	spans   string // traced runs write their spans here as JSON
}

// schedule splits the run's seconds over the phases: a warm-up, then
// rounds of a paced slice followed by a saturate slice, and the rest for
// the drains and the workload's own phases. The phases alternate so that
// each metric's windows are spread over the whole run: a co-tenant's burst
// of a few seconds then spoils some windows of every metric, never all
// windows of one. At the 30 s the benchmark fixes this is 1.5 s warm-up
// and three rounds of 5 s paced and 3 s saturate.
type schedule struct {
	warm, paced, saturate time.Duration // paced and saturate are one round's
}

const rounds = 3

func scheduleFor(seconds float64) schedule {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return schedule{warm: d(0.05), paced: d(0.5 / rounds), saturate: d(0.3 / rounds)}
}

const (
	saturateWindows = 12 // per slice; the first saturateWarm of them are warm-up
	saturateWarm    = 2
	pacedWindows    = 10 // per slice; the median latency is taken per window
	batchSize       = 64 // PublishBatch size on batch workloads
)

// quiet picks, from one value per window, the value that stands for the
// run: the quartile on the better side, so the first quartile of a
// lower-is-better metric. This box is a few vCPUs of a shared host, and a
// neighbour's burst slows whole windows by a tenth to a half; the median
// over windows moves with how many were hit, the better quartile only
// once three in four were. A change to the program moves every window,
// and so moves the quartile as it moves the median.
func quiet[T int32 | int64 | float64](windows []T, lowerIsBetter bool) T {
	if lowerIsBetter {
		return percentile(windows, 0.25)
	}
	return percentile(windows, 0.75)
}

// pace runs an open loop: tick k is due at start+k*tick whatever came
// before it, so a generator that falls behind sends late ticks back to
// back with their original due times. It returns how late each tick ran.
func pace(start int64, tick time.Duration, ticks int, send func(k int, due int64)) []int64 {
	late := make([]int64, 0, ticks)
	for k := 0; k < ticks; k++ {
		due := start + int64(k)*int64(tick)
		sleepUntil(due)
		late = append(late, now()-due)
		send(k, due)
	}
	return late
}

// spinNS is how long before a due time the generator stops sleeping and
// spins: longer than nanosleep ever overshoots here, and a fifth of a
// 1 ms tick, so the generator costs at most a fifth of one core.
const spinNS = 200_000

// sleepUntil returns when the harness clock reads t. time.Sleep would do
// for seconds, not for a 1 ms tick: an idle Go scheduler waits in the
// network poller, whose timeout counts whole milliseconds. nanosleep
// overshoots by the kernel's timer slack and a wake-up, tens of µs, and
// the spin takes that off, so that lateness measures stalls, not the
// clock.
func sleepUntil(t int64) {
	for d := t - now() - spinNS; d > 0; d = t - now() - spinNS {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) loops
	}
	for now() < t {
	}
}

// pacedResult is what the open-loop phase measured.
type pacedResult struct {
	start, end int64
	late       []int64 // per tick, ns
	calls      []int32 // per Publish/PublishBatch call, ns
	callAt     []int64 // when each call began (traced runs)
	firstSeq   uint64
	events     int
}

// paced offers the workload's fixed rate for dur: every tick, the burst
// due at that tick is published, stamped with the tick's due time.
func (b *bed) paced(dur time.Duration, record bool) (pacedResult, error) {
	sp := b.sp
	tick := time.Duration(sp.burst) * time.Second / time.Duration(sp.rate)
	ticks := int(dur / tick)
	r := pacedResult{firstSeq: b.seq + 1, calls: make([]int32, 0, ticks*sp.burst)}
	call := func(t0 int64) {
		r.calls = append(r.calls, clampLat(now()-t0))
		r.callAt = append(r.callAt, t0)
	}
	b.record.Store(record)
	isolate(func() {
		r.start = now() + int64(tick)
		r.late = pace(r.start, tick, ticks, func(_ int, due int64) {
			if sp.batch {
				b.batch = b.batch[:0]
				for j := 0; j < sp.burst; j++ {
					b.batch = append(b.batch, b.next(due))
				}
				t0 := now()
				if err := b.pub.PublishBatch(b.batch); err != nil {
					b.pubErrs++
				}
				call(t0)
				return
			}
			for j := 0; j < sp.burst; j++ {
				e := b.next(due)
				t0 := now()
				b.publish(e)
				call(t0)
			}
		})
	})
	r.end = now()
	r.events = ticks * sp.burst
	// Paced events undelivered two seconds after the phase count as lost.
	err := b.drain(2 * time.Second)
	b.record.Store(false)
	return r, err
}

// snap is the process's cost counters at a window edge.
type snap struct {
	at        int64
	published uint64
	cpu       time.Duration
	mallocs   uint64
	gcCycles  uint32
	gcPause   time.Duration
}

func (b *bed) takeSnap() snap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snap{
		at: now(), published: b.seq,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// saturate is the closed loop: the publisher calls Publish (or
// PublishBatch) back to back, throttled only by the broker's credit
// gate. It returns the cost counters at every window edge. In a traced
// run odd windows run with hop tracing on and even ones with it off, so
// the overhead is read between neighbours.
func (b *bed) saturate(dur time.Duration, trace bool) ([]snap, error) {
	width := int64(dur) / saturateWindows
	snaps := []snap{b.takeSnap()}
	edge := snaps[0].at + width
	b.setTracing(false)
	for {
		t := now()
		if t >= edge {
			snaps = append(snaps, b.takeSnap())
			if len(snaps) > saturateWindows {
				break
			}
			edge += width
			b.setTracing(trace && len(snaps)%2 == 0)
		}
		if !b.sp.batch {
			b.publish(b.next(t))
			continue
		}
		b.batch = b.batch[:0]
		for j := 0; j < batchSize; j++ {
			b.batch = append(b.batch, b.next(t))
		}
		if err := b.pub.PublishBatch(b.batch); err != nil {
			b.pubErrs++
		}
	}
	b.setTracing(trace)
	// The rate only counts if the backlog then drains within 5 s.
	return snaps, b.drain(5 * time.Second)
}

func (b *bed) setTracing(on bool) {
	for _, srv := range b.servers {
		srv.Tracer().Enable(on)
	}
}

// spillResult is the tree-durable workload's own two phases.
type spillResult struct {
	spillEPS, replayEPS float64
	backlog             uint64
	segments            int // store segments holding the backlog
}

// spillReplay severs the durable sink without unsubscribing, publishes
// the spill closed-loop while the leaf's store takes what the sink is
// owed, then reconnects under the same ID and times the backlog's
// replay.
func (b *bed) spillReplay(events int) (spillResult, error) {
	var r spillResult
	di := slices.IndexFunc(b.in.subs, func(s subSpec) bool { return s.kind == subDurable })
	leaf := b.servers[slices.IndexFunc(b.sp.brokers, func(bs brokerSpec) bool { return bs.durable })]
	clients := leaf.ConnectedClients()
	b.sinks[di].sever()
	b.sinks[di] = nil
	if err := await(func() bool { return leaf.ConnectedClients() == clients-1 }); err != nil {
		return r, fmt.Errorf("leaf never noticed the severed sink: %w", err)
	}
	owedBefore := b.or.expected(di)
	appended := leaf.StoreStats().Appended

	t0 := now()
	for i := 0; i < events; i++ {
		b.publish(b.next(now()))
	}
	round := b.sentinels()
	r.backlog = b.or.expected(di) - owedBefore
	if err := await(func() bool { return leaf.StoreStats().Appended-appended >= r.backlog }); err != nil {
		return r, fmt.Errorf("store appended %d of %d spilled events: %w", leaf.StoreStats().Appended-appended, r.backlog, err)
	}
	r.spillEPS = float64(events) / time.Duration(now()-t0).Seconds()
	r.segments = leaf.StoreStats().Segments
	if !b.awaitRound(round, 10*time.Second, di) {
		return r, errors.New("live subscribers did not drain the spill")
	}

	t1 := now()
	s, err := b.dialSink(di)
	if err != nil {
		return r, err
	}
	b.sinks[di] = s
	if !b.awaitRound(round, 10*time.Second, -1) {
		return r, errors.New("backlog replay never completed")
	}
	r.replayEPS = float64(r.backlog) / time.Duration(now()-t1).Seconds()
	return r, nil
}

// churnResult is what the churn connection measured.
type churnResult struct {
	rtts []int64 // subscribe round trips while the paced phase recorded, ns
	err  error
}

// startChurn runs the workload's churn connection, if it has one, until
// the returned stop is called: pairs are due at the workload's rate, each
// waits for its reply. stop returns what was measured; a second call
// returns nothing.
func (b *bed) startChurn() (stop func() churnResult, err error) {
	if b.sp.churnRate == 0 {
		return func() churnResult { return churnResult{} }, nil
	}
	ch, err := dialChurner(b.servers[0].Addr())
	if err != nil {
		return nil, err
	}
	quit := make(chan struct{})
	done := make(chan churnResult, 1)
	go func() {
		var r churnResult
		defer func() { done <- r }()
		t := time.NewTicker(time.Second / time.Duration(b.sp.churnRate))
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			rtt, err := ch.pair(b.in.churn[i%len(b.in.churn)])
			if err != nil {
				r.err = err
				return
			}
			if b.record.Load() {
				r.rtts = append(r.rtts, int64(rtt))
			}
		}
	}()
	var once sync.Once
	return func() (r churnResult) {
		once.Do(func() {
			close(quit)
			r = <-done
			ch.c.Close()
		})
		return r
	}, nil
}

// runWorkload is one whole run of one workload: generate, set up (several
// times, for a steady setup_s), warm up, rounds of paced and saturate, the
// workload's own phases, then the oracle's verdict. No verdict, no metrics.
func runWorkload(sp *spec, o options) (*report, error) {
	in, err := generate(sp, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(in, sp.sample)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: sp.name, Values: values{}}
	note := func(format string, a ...any) { rep.Notes = append(rep.Notes, fmt.Sprintf(format, a...)) }
	note("inputs sha256 %s", in.digest()[:16])

	// Set-up is repeated for a second (at least 3 times, at most 200) and
	// its median reported: one boot of a small topology is a dozen
	// goroutine wake-ups, half a millisecond that varies by half.
	var b *bed
	var setups []float64
	for spent := 0.0; len(setups) < 3 || (len(setups) < 200 && spent < 1); {
		if b != nil {
			b.close()
		}
		t0 := now()
		if b, err = setUp(sp, in, or, o.trace, o.tmp); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		s := time.Duration(now() - t0).Seconds()
		setups = append(setups, s)
		spent += s
	}
	defer b.close()
	note("setup_s is the median of %d set-ups", len(setups))
	rep.Values["setup_s"] = median(setups)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Values["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	stopChurn, err := b.startChurn()
	if err != nil {
		return nil, err
	}
	defer stopChurn()

	sched := scheduleFor(o.seconds)
	lc := newLive(b, o.trace)
	if _, err := b.paced(sched.warm, false); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	var prs []pacedResult
	var sats [][]snap
	for r := 0; r < rounds; r++ {
		lc.mark("paced")
		pr, err := b.paced(sched.paced, true)
		if err != nil {
			return nil, fmt.Errorf("%s: paced: %w", sp.name, err)
		}
		prs = append(prs, pr)
		lc.mark("saturate")
		snaps, err := b.saturate(sched.saturate, o.trace)
		if err != nil {
			return nil, fmt.Errorf("%s: saturate: %w", sp.name, err)
		}
		sats = append(sats, snaps)
	}
	lc.mark("rest")
	cr := stopChurn()
	if cr.err != nil {
		return nil, fmt.Errorf("%s: churn: %w", sp.name, cr.err)
	}
	var sr spillResult
	if sp.spill > 0 {
		if sr, err = b.spillReplay(sp.spill / o.scale); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	lc.mark("end")

	v := b.judge()
	rep.Attempted, rep.Failed, rep.Correct = v.attempted, v.failed(), v.failed() == 0
	if !rep.Correct {
		return rep, fmt.Errorf("%s: delivered set differs from the oracle: %v", sp.name, v.detail)
	}

	samples := b.pacedSamples()
	var late []int64
	var calls []int32
	events := 0
	for _, pr := range prs {
		late, calls, events = append(late, pr.late...), append(calls, pr.calls...), events+pr.events
	}
	note("latency over %d deliveries of %d paced events", len(samples), events)
	latencyMetrics(rep, samples, prs)
	saturateMetrics(rep, sats, o.trace)
	rep.Values["loadgen.late_p99_us"] = float64(percentile(late, 0.99)) / 1e3
	rep.Values["loadgen.publish_call_p50_us"] = float64(median(calls)) / 1e3
	rep.Values["loadgen.subscribe_rtt_p50_us"] = float64(median(cr.rtts)) / 1e3
	rep.Values["loadgen.spill_eps"] = sr.spillEPS
	rep.Values["loadgen.replay_eps"] = sr.replayEPS
	rep.Values["store.segments"] = float64(sr.segments)
	if late := rep.Values["loadgen.late_p99_us"]; late >= 1000 {
		note("INVALID: the generator ran %.0f us late at p99 (limit 1000); latency includes it", late)
	}
	if o.trace {
		lc.metrics(rep)
		bd, err := runBudget(sp, in, o)
		if err != nil {
			return nil, fmt.Errorf("%s: budget pass: %w", sp.name, err)
		}
		bd.metrics(rep)
		if o.spans != "" {
			if err := writeSpans(o.spans, bd.tr, b.liveSpans(prs[0])); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// pacedSamples merges every subscriber's latency samples of the paced
// slices in handler-time order.
func (b *bed) pacedSamples() []sample {
	var all []sample
	for _, st := range b.subs {
		all = append(all, st.samples...)
	}
	slices.SortFunc(all, func(x, y sample) int { return cmp.Compare(x.at, y.at) })
	return all
}

// latencyMetrics reports the paced slices. Each slice is cut into
// windows; the median latency is the quiet quartile of the windows'
// medians, and the p99 the median of per-window p99s, which one
// co-tenant hiccup cannot move.
func latencyMetrics(rep *report, samples []sample, prs []pacedResult) {
	lats := make([]int32, len(samples))
	for i, s := range samples {
		lats[i] = s.lat
	}
	slices.Sort(lats)
	n99 := p99WindowsFor(len(samples) / len(prs))
	var p50s, p99s []int32
	for r, pr := range prs {
		// A slice's samples run up to the next slice's start: deliveries
		// still in flight when it ended belong to its last window.
		lo, _ := slices.BinarySearchFunc(samples, pr.start, func(s sample, t int64) int { return cmp.Compare(s.at, t) })
		hi := len(samples)
		if r+1 < len(prs) {
			hi, _ = slices.BinarySearchFunc(samples, prs[r+1].start, func(s sample, t int64) int { return cmp.Compare(s.at, t) })
		}
		span := pr.end - pr.start
		p50s = append(p50s, windowPercentiles(samples[lo:hi], pr.start, span/pacedWindows, pacedWindows, 0.5)...)
		p99s = append(p99s, windowPercentiles(samples[lo:hi], pr.start, span/int64(n99), n99, 0.99)...)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("latency_p50_us is the first quartile of %d windows' medians", len(p50s)),
		fmt.Sprintf("loadgen.latency_p99_us is the median of %d windows", len(p99s)))
	rep.Values["latency_p50_us"] = float64(quiet(p50s, true)) / 1e3
	rep.Values["loadgen.latency_p99_us"] = float64(median(p99s)) / 1e3
	rep.Values["loadgen.latency_p999_us"] = float64(sortedPercentile(lats, 0.999)) / 1e3
	rep.Values["loadgen.latency_max_us"] = float64(lats[len(lats)-1]) / 1e3
}

// p99WindowsFor picks how many windows a slice's p99 is taken over: the
// p50's windows when each would still hold a thousand deliveries (ten
// beyond its p99), otherwise two, so never fewer than six in a run.
func p99WindowsFor(samplesPerSlice int) int {
	if samplesPerSlice/pacedWindows >= 1000 {
		return pacedWindows
	}
	return 2
}

// saturateMetrics reports the closed loop from the window-edge counters
// of every slice, its warm-up windows left out: the timings are the quiet
// quartile over the windows, the allocation count their median.
func saturateMetrics(rep *report, sats [][]snap, trace bool) {
	var eps, cpu, allocs, tracedEPS, untracedEPS []float64
	var gcCycles uint32
	var gcPause time.Duration
	for _, snaps := range sats {
		for i := saturateWarm + 1; i < len(snaps); i++ {
			a, z := snaps[i-1], snaps[i]
			n := float64(z.published - a.published)
			rate := n / time.Duration(z.at-a.at).Seconds()
			eps = append(eps, rate)
			cpu = append(cpu, float64((z.cpu-a.cpu).Microseconds())/n)
			allocs = append(allocs, float64(z.mallocs-a.mallocs)/n)
			if i%2 == 0 {
				tracedEPS = append(tracedEPS, rate)
			} else {
				untracedEPS = append(untracedEPS, rate)
			}
		}
		first, last := snaps[saturateWarm], snaps[len(snaps)-1]
		gcCycles += last.gcCycles - first.gcCycles
		gcPause += last.gcPause - first.gcPause
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("saturate metrics are taken over %d windows", len(eps)))
	rep.Values["throughput_eps"] = quiet(eps, false)
	rep.Values["cpu_us_per_event"] = quiet(cpu, true)
	rep.Values["allocs_per_event"] = median(allocs)
	rep.Values["runtime.gc_cycles"] = float64(gcCycles)
	rep.Values["runtime.gc_pause_ms"] = float64(gcPause.Microseconds()) / 1e3
	if trace {
		rep.Values["trace.overhead_ratio"] = median(tracedEPS) / median(untracedEPS)
	}
}

// liveSpans builds the traced run's harness spans from the first paced
// slice: per paced event a root from its due time to its last handler exit, with the Publish call
// and each handler entry as children.
func (b *bed) liveSpans(pr pacedResult) []span {
	const keep = 4096 // events; the file is for reading, not for statistics
	var tr tracer
	roots := map[uint64]int{}
	seq := pr.firstSeq
	per := 1
	if b.sp.batch {
		per = b.sp.burst
	}
	for i := 0; i < len(pr.calls) && i*per < keep; i++ {
		for j := 0; j < per; j++ {
			root := tr.add("event", -1, seq, pr.callAt[i], pr.callAt[i])
			tr.add("loadgen.publish", root, seq, pr.callAt[i], pr.callAt[i]+int64(pr.calls[i]))
			roots[seq] = root
			seq++
		}
	}
	for i, st := range b.subs {
		for _, h := range st.handled {
			root, ok := roots[seqOf(h.id)]
			if !ok {
				continue
			}
			tr.add("handler."+b.in.subs[i].id, root, seqOf(h.id), h.at, h.end)
			tr.spans[root].End = max(tr.spans[root].End, h.end)
		}
	}
	return tr.spans
}
