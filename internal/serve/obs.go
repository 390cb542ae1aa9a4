package serve

// Observability wiring for the serving simulator (see internal/obs and
// docs/OBSERVABILITY.md): the request-lifecycle ledger, whose segment
// transitions also drive the trace's async phases, plus a sampled
// timeline registry, all driven by the sim clock. The hooks every call
// site follows:
//
//   - A request's lifecycle state lives only in its obs.Ledger record.
//     Each lifecycle change is one call — ReqStart, ReqSeg (or ledSeqs,
//     ledStall, reqPrefill), emitFirstToken, ReqHalt, reqDone, reqLost
//     — and the ledger emits the trace's Begin/End pairs from its
//     segment→phase table. Call sites add only their Instant/Span events.
//   - f.obs == nil and f.led == nil are the disabled states. Ledger
//     methods are nil-receiver-safe; every other hook sits behind one
//     nil check with all argument computation inside it, so a disabled
//     run executes no observability code and allocates nothing.
//   - The ledger runs whenever Trace or Attrib is on; only Attrib adds
//     the attribution report sections, the ledger export and the
//     attrib_dom timeline, so trace bytes never depend on Attrib.
//   - Events, samples and records are made by the run's own
//     single-threaded event loop in creation order, stamped with sim
//     cycles only, and each parallel scenario leg owns its obsState and
//     ledger, so exports are byte-identical at any worker count.
//
// Segment flow: arrive → SegQueue → [SegKVStall] → SegService → done
// (single-shot), or → SegPrefill/SegReplay/SegCrashReplay → SegDecodeGap
// ⇄ SegDecode → done (LLM), with excursions for chunked prefill,
// migration, paged eviction and swap, preemption and crash recovery.
// Every transition closes the open interval into the outgoing segment,
// so the segments sum exactly to completion − arrival (ReqDone checks).

import (
	"fmt"

	"neu10/internal/metrics"
	"neu10/internal/obs"
	"neu10/internal/sim"
	"neu10/internal/xfer"
)

// ObsConfig switches observability on for a run. The zero value (and a
// nil pointer) disables everything.
type ObsConfig struct {
	// Trace records per-request lifecycle phases (derived from the
	// ledger's segments), execution slices and control/fault instants,
	// exported as Chrome trace-event JSON (Perfetto).
	Trace bool
	// Timelines samples queue depth, KV occupancy, fleet/pool sizes,
	// link utilization/backlog and attainment every SampleEveryMs.
	Timelines bool
	// SampleEveryMs is the timeline sampling period in sim milliseconds
	// (default 10).
	SampleEveryMs float64
	// WindowSamples is the sliding-window width, in samples, of the
	// derived windowed-attainment series (default 20).
	WindowSamples int
	// Attrib reports the attribution ledger (obs.Ledger): exact
	// per-request segment accounting and the fleet cycle ledger, with
	// conservation checked in-sim. Adds the attribution report sections,
	// Report.Ledger and the per-tenant attrib_dom timeline (when
	// Timelines is also on).
	Attrib bool
}

func (o *ObsConfig) defaults() {
	if o.SampleEveryMs == 0 {
		o.SampleEveryMs = 10
	}
	if o.WindowSamples == 0 {
		o.WindowSamples = 20
	}
}

func (o *ObsConfig) validate() error {
	if o.SampleEveryMs < 0 {
		return fmt.Errorf("serve: obs sample period %v ms", o.SampleEveryMs)
	}
	if o.WindowSamples < 0 {
		return fmt.Errorf("serve: obs window %d samples", o.WindowSamples)
	}
	return nil
}

// enabled reports whether this config turns any collector on.
func (o *ObsConfig) enabled() bool { return o != nil && (o.Trace || o.Timelines || o.Attrib) }

// obsState is one run's observability runtime; fleet.obs is nil when
// disabled.
type obsState struct {
	cfg   ObsConfig
	trace *obs.Tracer      // nil unless cfg.Trace
	tl    *obs.TimelineSet // nil unless cfg.Timelines

	// sloOK counts completions within SLO per tenant — the cumulative
	// attainment numerator, maintained incrementally so sampling never
	// re-sorts the latency recorder.
	sloOK []int
	// hist accumulates per-interval completion latencies (ms) per
	// tenant for the rolling p50/p99 timeline.
	hist []metrics.RollingHist
	// lastLinkBusy remembers each link's busy integral at the previous
	// tick, keyed by link name, to derive per-interval utilization.
	lastLinkBusy map[string]float64
	lastSample   float64

	// attribWin holds, per tenant, a sliding window (WindowSamples+1
	// deep, oldest first) of cumulative completed-request segment totals;
	// the attrib_dom series differences the newest snapshot against the
	// oldest to get the window's dominant-blame share.
	attribWin [][]segSnap
}

// segSnap is one cumulative segment-total snapshot.
type segSnap [obs.NumSegments]float64

// Trace/track layout: one Chrome "process" per tenant plus a "fleet"
// process for fabric and fault-plan events. Within a tenant process,
// track 0 carries control instants (spawn/drain/scale/crash), and each
// replica gets track 2+uid (fleet-unique, so shared slots never
// collide). Async lifecycle phases are keyed by request id, not track.
const (
	obsProcFleet    = "fleet"
	obsTrackControl = int32(0)
)

func obsReplicaTrack(r *replica) int32 { return int32(2 + r.uid) }

// obsBatchName names a batch-kind execution slice.
var obsBatchName = [...]string{
	kindInvoke:           "invoke",
	kindLLMPrefill:       "llm-prefill",
	kindLLMDecode:        "llm-decode",
	kindLLMStaticPrefill: "llm-static-prefill",
	kindLLMStaticDecode:  "llm-static-decode",
}

// obsBatchWidth is the slice's width arg: requests for single-shot
// batches, sequences for LLM kinds.
func obsBatchWidth(b *batch) int {
	if b.kind == kindInvoke {
		return len(b.reqs)
	}
	return len(b.seqs)
}

// newObsState builds the run's observability runtime (cfg is already
// defaulted and validated; callers check cfg.enabled() first).
func newObsState(cfg ObsConfig, scenario string, freqHz float64, tenants int) *obsState {
	o := &obsState{cfg: cfg, sloOK: make([]int, tenants), hist: make([]metrics.RollingHist, tenants)}
	if cfg.Trace {
		o.trace = obs.NewTracer(scenario, freqHz)
	}
	if cfg.Timelines {
		o.tl = obs.NewTimelineSet(scenario, freqHz)
		o.lastLinkBusy = map[string]float64{}
	}
	return o
}

// obsRegisterReplica names a freshly spawned replica's trace track.
func (f *fleet) obsRegisterReplica(r *replica) {
	f.obs.trace.NameTrack(r.ten.cfg.Name, obsReplicaTrack(r),
		fmt.Sprintf("replica %d (%s, chip %d)", r.id, r.role, r.vnpu.Mapping.PNPU))
}

// ledBusyBucket maps a batch kind to the fleet-cycle bucket its
// compute occupies.
func ledBusyBucket(k batchKind) obs.Bucket {
	switch k {
	case kindInvoke:
		return obs.BucketService
	case kindLLMPrefill, kindLLMStaticPrefill:
		return obs.BucketPrefill
	default:
		return obs.BucketDecode
	}
}

// ledSeqs transitions every sequence of a batch into seg.
func (f *fleet) ledSeqs(t *tenantState, seqs []*llmSeq, seg obs.Segment, now sim.Time) {
	if f.led == nil {
		return
	}
	for _, s := range seqs {
		f.led.ReqSeg(t.cfg.Name, s.req.id, seg, float64(now))
	}
}

// reqPrefill transitions a request into its prompt-compute segment:
// crash replays and eviction replays re-earn their lost tokens under
// their own labels, so "prefill" stays first-pass work.
func (f *fleet) reqPrefill(t *tenantState, req *request, now sim.Time) {
	if f.led == nil {
		return
	}
	seg := obs.SegPrefill
	if req.crashed {
		seg = obs.SegCrashReplay
	} else if req.replay {
		seg = obs.SegReplay
	}
	f.led.ReqSeg(t.cfg.Name, req.id, seg, float64(now))
}

// ledStall marks the queue head KV-stalled: admissible but for blocks.
func (f *fleet) ledStall(t *tenantState, req request, now sim.Time) {
	f.led.ReqSeg(t.cfg.Name, req.id, obs.SegKVStall, float64(now))
}

// reqDone closes a completed request (lat in cycles): the ledger record,
// the attainment counters, the rolling latency histogram and the
// complete instant.
func (f *fleet) reqDone(t *tenantState, id int64, lat float64, out int, now sim.Time) {
	f.led.ReqDone(t.cfg.Name, id, float64(now), out)
	o := f.obs
	if o == nil {
		return
	}
	if lat <= t.sloCycles {
		o.sloOK[t.idx]++
	}
	if o.tl != nil {
		o.hist[t.idx].Add(lat / f.cfg.Core.FrequencyHz * 1e3)
	}
	o.trace.Instant("complete", "req", t.cfg.Name, obsTrackControl, float64(now), id, "lat_us", int64(lat/f.cfg.Core.FrequencyHz*1e6), "", "")
}

// reqLost drops a request lost to a crash: counted, its record
// discarded, and a crash-lost instant carrying why.
func (f *fleet) reqLost(t *tenantState, id int64, ak string, av int64, reason string, now sim.Time) {
	t.crashLost++
	f.led.ReqDrop(t.cfg.Name, id, float64(now))
	if f.obs != nil {
		f.obs.trace.Instant("crash-lost", "fault", t.cfg.Name, obsTrackControl, float64(now), id, ak, av, "reason", reason)
	}
}

// ledRepIdle re-marks an unoccupied replica's standing bucket:
// draining, doing wire work (inbound KV transfers), or plain idle.
// No-op while a batch runs — startSegment owns the busy buckets.
func (f *fleet) ledRepIdle(r *replica, now sim.Time) {
	if f.led == nil || r.cur != nil {
		return
	}
	b := obs.BucketIdle
	if r.draining {
		b = obs.BucketDrain
	} else if r.inbound > 0 {
		b = obs.BucketMigration
	}
	f.led.RepMark(r.uid, b, float64(now))
}

// ledPark parks every request of a suspended batch in SegPreempt, or
// restores them on resume. The ledger remembers the parked segment, so
// a preempted decode gap resumes as a decode gap.
func (f *fleet) ledPark(b *batch, now sim.Time, suspend bool) {
	if f.led == nil {
		return
	}
	park := f.led.ReqResume
	if suspend {
		park = f.led.ReqSuspend
	}
	for i := range b.reqs {
		park(b.ten.cfg.Name, b.reqs[i].id, float64(now))
	}
	for _, s := range b.seqs {
		park(b.ten.cfg.Name, s.req.id, float64(now))
	}
}

// scheduleObs arms the recurring timeline sampling tick (every is in
// cycles). Like the autoscaler tick, sampling stops at the scenario
// horizon; report() takes one final sample at the drain end so the last
// point of every cumulative series equals the run aggregate.
func (f *fleet) scheduleObs(every float64) {
	at := float64(f.eng.Now()) + every
	if at > f.durCycles {
		return
	}
	f.eng.At(sim.Time(at), func(now sim.Time) {
		f.obsSample(float64(now))
		f.scheduleObs(every)
	})
}

// obsSample records one timeline tick at `now` cycles. All reads are
// pure or lazily-advancing integrals (kv accrue, link advance), so a
// sample never changes simulation behavior.
func (f *fleet) obsSample(now float64) {
	o := f.obs
	if o == nil || o.tl == nil || now < o.lastSample {
		return
	}
	dt := now - o.lastSample
	o.lastSample = now
	// Queue depth and running-set size, attributed to the QUEUE OWNER
	// tenant (shared slots carry one queue per group member).
	for _, t := range f.tenants {
		name := t.cfg.Name
		var depth, running int
		for _, p := range t.peers {
			for _, r := range p.replicas {
				if q := r.queueFor(t); q != nil {
					depth += len(q.reqs)
					running += len(q.running)
				}
			}
		}
		o.tl.Add(name+"/queue", now, float64(depth))
		o.tl.Add(name+"/replicas_active", now, float64(t.activeCount()))
		if t.llm != nil {
			o.tl.Add(name+"/running", now, float64(running))
		}
		if t.disagg() != nil {
			o.tl.Add(name+"/prefill_replicas", now, float64(t.activeRole(RolePrefill)))
			o.tl.Add(name+"/decode_replicas", now, float64(t.activeRole(RoleDecode)))
		}
		// Per-replica KV occupancy fraction (live replicas only; a
		// retired replica's occupancy is folded into the tenant
		// aggregate at retire time, same as the report).
		for _, r := range t.replicas {
			if r.kv != nil && r.kv.total() > 0 {
				o.tl.Add(fmt.Sprintf("%s/kv_frac/r%d", name, r.id), now,
					float64(r.kv.used())/float64(r.kv.total()))
			}
			// Paged-backend internals (absent for reserve tenants, so
			// legacy timeline sets are unchanged): reclaimable cold cache
			// blocks and the swapped-out sequence backlog.
			if p, ok := r.kv.(*pagedKV); ok {
				o.tl.Add(fmt.Sprintf("%s/kv_cold/r%d", name, r.id), now, float64(p.cold))
				o.tl.Add(fmt.Sprintf("%s/kv_swap_q/r%d", name, r.id), now, float64(len(p.swapQ)))
			}
		}
		// Dominant-blame share over the sliding window: the largest
		// segment's fraction of all attributed cycles completed in the
		// last WindowSamples ticks (0 while the window saw no completion).
		if o.cfg.Attrib {
			if o.attribWin == nil {
				o.attribWin = make([][]segSnap, len(f.tenants))
			}
			cur := segSnap(f.led.SegTotals(name))
			win := append(o.attribWin[t.idx], cur)
			if len(win) > o.cfg.WindowSamples+1 {
				n := copy(win, win[1:])
				win = win[:n]
			}
			o.attribWin[t.idx] = win
			old := win[0]
			var sum, max float64
			for i := range cur {
				d := cur[i] - old[i]
				sum += d
				if d > max {
					max = d
				}
			}
			share := 0.0
			if sum > 0 {
				share = max / sum
			}
			o.tl.Add(name+"/attrib_dom", now, share)
		}
		// Cumulative attainment (and its numerator/denominator, which
		// the report post-processes into a sliding-window series).
		o.tl.Add(name+"/arrivals", now, float64(t.arrivals))
		o.tl.Add(name+"/slo_ok", now, float64(o.sloOK[t.idx]))
		attain := 0.0
		if t.arrivals > 0 {
			attain = float64(o.sloOK[t.idx]) / float64(t.arrivals)
		}
		o.tl.Add(name+"/attain", now, attain)
		if f.faulted {
			fw := 0.0
			if t.fwArrivals > 0 {
				fw = float64(t.fwSloOK) / float64(t.fwArrivals)
			}
			o.tl.Add(name+"/fw_attain", now, fw)
		}
		// Rolling per-interval latency percentiles.
		n, p50, p99 := o.hist[t.idx].Flush()
		o.tl.Add(name+"/lat_n", now, float64(n))
		o.tl.Add(name+"/lat_p50_ms", now, p50)
		o.tl.Add(name+"/lat_p99_ms", now, p99)
	}
	if f.fabric != nil {
		f.fabric.EachLink(func(l *xfer.Link) {
			busy := l.BusyCycles(now)
			util := 0.0
			if dt > 0 {
				util = (busy - o.lastLinkBusy[l.Name()]) / dt
			}
			o.lastLinkBusy[l.Name()] = busy
			o.tl.Add("link/"+l.Name()+"/util", now, util)
			o.tl.Add("link/"+l.Name()+"/backlog_mb", now, l.Backlog(now)/(1<<20))
			o.tl.Add("link/"+l.Name()+"/active", now, float64(l.Active()))
		})
	}
}

// obsFinish takes the final sample, derives the windowed-attainment
// series, adopts each tenant's replica timeline (converted from cycles
// to ms) and attaches trace + timelines to the report.
func (f *fleet) obsFinish(rep *Report, end float64) {
	o := f.obs
	if o == nil {
		return
	}
	rep.Trace = o.trace
	if o.tl == nil {
		return
	}
	f.obsSample(end)
	for _, t := range f.tenants {
		name := t.cfg.Name
		if num, den := o.tl.Get(name+"/slo_ok"), o.tl.Get(name+"/arrivals"); num != nil && den != nil {
			if win, err := obs.WindowedRatio(name+"/attain_win", num, den, o.cfg.WindowSamples); err == nil {
				o.tl.Attach(win)
			}
		}
		// The replica timeline report.go previously dropped from JSON
		// (json:"-"): re-based from cycles to ms and exported with
		// everything else.
		rt := metrics.NewTimeSeries(name+"/replicas", 0)
		for i := range t.replicaTL.Times {
			rt.Add(t.replicaTL.Times[i]/f.cfg.Core.FrequencyHz*1e3, t.replicaTL.Values[i])
		}
		o.tl.Attach(rt)
	}
	rep.Timelines = o.tl
}
