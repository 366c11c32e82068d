// Package sched implements the paper's Section 7.3 scheduling layer.
// Interference is the enemy of sustained performance: when two plans
// contend for a link or accelerator, arbitration and re-acquisition
// overheads eat throughput. The scheduler therefore (a) selects among
// each query's plan *variants* at admission time, steering new work away
// from loaded resources, (b) rate-limits the DMA bandwidth of plans
// sharing a link so each gets a fair, predictable share, and (c) bounds
// the number of concurrently running plans, queueing or shedding the
// rest so overload degrades into fast rejections instead of collapse.
package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/wiring"
)

// ErrOverloaded is returned when admission control sheds a query: the
// admit queue is full, or the projected queue wait already exceeds the
// caller's deadline. Shed queries never held resources, so callers can
// fail fast or retry elsewhere without cleanup.
var ErrOverloaded = errors.New("sched: overloaded")

// Admission is one admitted plan execution. Callers must Release it when
// the query finishes.
type Admission struct {
	ID      int64
	Plan    *plan.Physical
	Variant string
	// Cost is the optimizer's virtual-time estimate for the chosen
	// variant, used to calibrate projected queue waits.
	Cost sim.VTime

	links    []*fabric.Link
	devices  []*fabric.Device // placed devices holding worker slots
	slots    int              // worker slots held on each of those devices
	admitted time.Time
}

// waiter is one query parked in the bounded admit queue.
type waiter struct {
	variants []*plan.Physical
	ready    chan struct{}
	adm      *Admission
	err      error
}

// Scheduler tracks active plans and the load they put on fabric links.
type Scheduler struct {
	mu       sync.Mutex
	nextID   int64
	active   map[int64]*Admission
	linkLoad map[*fabric.Link]int
	queue    []*waiter

	// ContentionPenalty is the rank-score penalty per already-active
	// plan on a link the candidate variant would use. Higher values
	// steer harder toward idle resources.
	ContentionPenalty float64
	// MaxActive bounds concurrently admitted plans; 0 means unbounded
	// (no admission control, the pre-lifecycle behavior).
	MaxActive int
	// QueueCap bounds the admit queue when MaxActive is set. A query
	// arriving to a full queue is shed with ErrOverloaded. 0 means an
	// unbounded queue.
	QueueCap int
	// Workers is the worker-pool width admitted queries will run with
	// (the engine's intra-query parallelism); 0 or 1 means serial. Each
	// admission reserves that many worker slots on every device the
	// chosen variant places work on, and WorkerSlotPenalty scores
	// candidates by how far those reservations oversubscribe a device's
	// replicated units (fabric.Device.Units) — a four-core CPU already
	// running one four-worker plan is a worse home for the next one than
	// an idle accelerator, even if the idle device ranks lower statically.
	Workers int
	// WorkerSlotPenalty is the rank-score penalty per fully oversubscribed
	// device (scaled by the oversubscription ratio); 0 disables worker-
	// slot awareness.
	WorkerSlotPenalty float64
	// SLOShedBurnRate, with an SLO tracker wired, lets admission read
	// the fleet's SLO burn rate: while the burn is at or above the
	// threshold, arrivals that would otherwise queue are shed with
	// ErrOverloaded instead — the queue is exactly the latency the SLO
	// is already missing, so parking more work behind it only converts
	// future budget into present queueing. The engines feed the tracker
	// with per-query wall latency; admission only reads it. 0 disables
	// the shedding; 1 sheds as soon as the error budget is being consumed
	// at the objective's limit; higher values tolerate short bursts and
	// shed only on clear overload.
	SLOShedBurnRate float64

	// svc is the wiring point the scheduler was built on, never nil.
	// Metrics receives continuous admission telemetry: sched.admitted /
	// sched.shed.* counters, sched.queue.depth and sched.active gauges,
	// and the EWMA service-time gauge. SLO is what SLOShedBurnRate reads.
	// Resilience supplies the per-device circuit breakers admission
	// consults (see breakerPenalties). Clock stamps admissions, times
	// their service and projects queue waits against deadlines.
	svc *wiring.Services

	deviceSlots map[string]int // device name -> worker slots held by active plans

	// ewmaService tracks mean admit->release wall time; ewmaCost tracks
	// the mean optimizer estimate of released plans. Together they
	// translate a queued plan's EstTime into projected wall-clock wait.
	ewmaService time.Duration
	ewmaCost    sim.VTime
}

// DefaultBreakerPenalty is the rank-score penalty per breaker-rejected
// device a variant places work on. It outweighs several rank positions
// plus typical contention: a tripped device only wins when no healthy
// variant exists.
const DefaultBreakerPenalty = 4.0

// DefaultDegradedPenalty is the rank-score penalty per gray-failed
// device — one whose breaker is not closed — a variant places work on.
// It sits between contention and DefaultBreakerPenalty: a slow-but-alive
// device loses ties but is not shunned as hard as one whose breaker
// rejects work.
const DefaultDegradedPenalty = 2.0

// New returns an empty scheduler with no admission bound (set MaxActive
// to enable overload control) that reads its optional subsystems from
// svc. A nil svc (a scheduler outside any engine) gets an empty one of
// its own: everything off.
func New(svc *wiring.Services) *Scheduler {
	if svc == nil {
		svc = new(wiring.Services)
	}
	return &Scheduler{
		svc:               svc,
		active:            make(map[int64]*Admission),
		linkLoad:          make(map[*fabric.Link]int),
		deviceSlots:       make(map[string]int),
		ContentionPenalty: 1.0,
		WorkerSlotPenalty: 1.0,
	}
}

// Services returns the wiring point the scheduler reads its metrics
// registry, SLO tracker, circuit breakers and clock from.
func (s *Scheduler) Services() *wiring.Services { return s.svc }

// Admit picks the least-interfering variant from the ranked candidates
// (best-ranked first, as returned by plan.Optimizer.Enumerate) and
// reserves its links. The choice trades the optimizer's static rank
// against current contention and device health: an idle lower-ranked
// variant can win over a loaded or circuit-broken top-ranked one.
// Variants that place work on offline devices are inadmissible.
//
// When MaxActive is set and all slots are busy the query queues (FIFO).
// Admission sheds with ErrOverloaded instead of queueing when the queue
// is at QueueCap, or when ctx carries a deadline the projected queue
// wait would already blow. A deadline or cancellation that fires while
// queued also sheds. Shed queries hold no resources.
func (s *Scheduler) Admit(ctx context.Context, variants []*plan.Physical) (*Admission, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("sched: no variants to admit")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.svc.Metrics.Counter("sched.admit.requests").Inc()
	s.mu.Lock()
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// Fast path: a free slot and nobody queued ahead.
	if s.MaxActive <= 0 || (len(s.active) < s.MaxActive && len(s.queue) == 0) {
		adm, err := s.admitLocked(variants)
		s.mu.Unlock()
		return adm, err
	}
	// All slots busy (or a queue has formed): shed or queue.
	if s.QueueCap > 0 && len(s.queue) >= s.QueueCap {
		nq, na := len(s.queue), len(s.active)
		s.mu.Unlock()
		s.shedMetric("queue_full")
		return nil, fmt.Errorf("%w: admit queue full (%d queued, %d active)", ErrOverloaded, nq, na)
	}
	// SLO burn-rate shedding: the proactive arm. Queueing is only worth
	// it while the SLO still has budget for the wait; once the burn rate
	// says the budget is being spent faster than the objective allows,
	// new arrivals are refused before they park.
	if s.SLOShedBurnRate > 0 { // a nil tracker burns at 0
		if burn := s.svc.SLO.BurnRate(s.svc.Clock.Now()); burn >= s.SLOShedBurnRate {
			s.mu.Unlock()
			s.shedMetric("slo_burn")
			return nil, fmt.Errorf("%w: SLO burn rate %.2f at shed threshold %.2f", ErrOverloaded, burn, s.SLOShedBurnRate)
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := s.projectedWaitLocked(); wait > 0 && wait > dl.Sub(s.svc.Clock.Now()) {
			s.mu.Unlock()
			s.shedMetric("deadline")
			return nil, fmt.Errorf("%w: projected queue wait %v exceeds deadline", ErrOverloaded, wait.Round(time.Microsecond))
		}
	}
	w := &waiter{variants: variants, ready: make(chan struct{})}
	s.queue = append(s.queue, w)
	s.svc.Metrics.Counter("sched.queued").Inc()
	s.svc.Metrics.Gauge("sched.queue.depth").Set(float64(len(s.queue)))
	s.mu.Unlock()

	select {
	case <-w.ready:
		return w.adm, w.err
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// Lost the race: a releaser already granted us the slot.
			// Hand it back to the caller, whose next ctx check unwinds.
			s.mu.Unlock()
			return w.adm, w.err
		default:
		}
		for i, q := range s.queue {
			if q == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.svc.Metrics.Gauge("sched.queue.depth").Set(float64(len(s.queue)))
		s.mu.Unlock()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.shedMetric("deadline")
			return nil, fmt.Errorf("%w: deadline expired in admit queue", ErrOverloaded)
		}
		s.svc.Metrics.Counter("sched.queue.cancelled").Inc()
		return nil, ctx.Err()
	}
}

// admitLocked scores the variants and reserves the winner's links.
func (s *Scheduler) admitLocked(variants []*plan.Physical) (*Admission, error) {
	workers := max(s.Workers, 1)
	health := s.breakerPenalties(variants)
	// The lowest score wins; on a tie the better-ranked variant does.
	best, bestCost := -1, 0.0
	for i, v := range variants {
		devices := v.Devices()
		if slices.ContainsFunc(devices, (*fabric.Device).IsOffline) {
			continue
		}
		contention := 0
		for _, l := range v.Links() {
			contention += s.linkLoad[l]
		}
		// Worker-slot pressure: placing this plan's worker pool on a
		// device already holding slots beyond its replicated units
		// serializes both plans' lanes; penalize by how far over.
		over, unhealthy := 0.0, 0.0
		for _, d := range devices {
			u := d.Units()
			if load := s.deviceSlots[d.Name] + workers; load > u {
				over += float64(load-u) / float64(u)
			}
			unhealthy += health[d.Name]
		}
		cost := float64(i) + s.ContentionPenalty*float64(contention) +
			s.WorkerSlotPenalty*over + unhealthy
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("sched: all %d variants place work on offline devices", len(variants))
	}
	chosen := variants[best]

	s.nextID++
	adm := &Admission{
		ID:       s.nextID,
		Plan:     chosen,
		Variant:  chosen.Variant,
		Cost:     chosen.EstTime,
		links:    chosen.Links(),
		devices:  chosen.Devices(),
		slots:    workers,
		admitted: s.svc.Clock.Now(),
	}
	for _, d := range adm.devices {
		s.deviceSlots[d.Name] += workers
	}
	s.active[adm.ID] = adm
	for _, l := range adm.links {
		s.linkLoad[l]++
	}
	s.svc.Metrics.Counter("sched.admitted").Inc()
	s.svc.Metrics.Gauge("sched.active").Set(float64(len(s.active)))
	s.rebalanceLocked(adm.links)
	return adm, nil
}

// breakerPenalties asks the policy's circuit breaker about each distinct
// device the variants occupy, once per admission, and returns what each
// unhealthy device adds to the score of a variant placing work on it:
// DefaultBreakerPenalty when the breaker rejects the work (open, or
// half-open with its probe slots spent) and DefaultDegradedPenalty while
// it is anything but closed — a gray-failed device. Scored down, not
// banned: when every variant is broken, the least-broken one still
// serves (slow) instead of shedding the query. The Allow stream doubles
// as half-open probing (unclaimed probe slots replenish after a
// cooldown); the engines report the executed plan's outcomes back via
// Success/Failure. No policy, no breakers: nil, which scores nothing.
func (s *Scheduler) breakerPenalties(variants []*plan.Physical) map[string]float64 {
	pol := s.svc.Resilience
	if pol == nil || pol.Breakers == nil {
		return nil
	}
	health := map[string]float64{}
	now := s.svc.Clock.Now()
	for _, v := range variants {
		for _, d := range v.Devices() {
			if _, asked := health[d.Name]; asked {
				continue
			}
			penalty := 0.0
			if !pol.Breakers.Allow(d.Name, now) {
				penalty += DefaultBreakerPenalty
			}
			if pol.Breakers.State(d.Name) != resilience.Closed {
				penalty += DefaultDegradedPenalty
			}
			health[d.Name] = penalty
		}
	}
	return health
}

// shedMetric counts one shed, by reason and in total.
func (s *Scheduler) shedMetric(reason string) {
	if s.svc.Metrics == nil {
		return
	}
	s.svc.Metrics.Counter("sched.shed").Inc()
	s.svc.Metrics.Counter("sched.shed." + reason).Inc()
}

// projectedWaitLocked estimates how long a new arrival would sit in the
// admit queue, from the EWMA of observed service times scaled by each
// queued plan's optimizer cost estimate. Zero when there is no service
// history yet (first queries are given the benefit of the doubt).
func (s *Scheduler) projectedWaitLocked() time.Duration {
	if s.MaxActive <= 0 || s.ewmaService <= 0 {
		return 0
	}
	scale := func(p *plan.Physical) float64 {
		if s.ewmaCost > 0 && p != nil && p.EstTime > 0 {
			return float64(p.EstTime) / float64(s.ewmaCost)
		}
		return 1
	}
	// Work ahead of the new arrival, in units of mean service times: the
	// running plans have on average half a service left; every queued
	// plan needs a full one, weighted by its cost estimate.
	ahead := 0.5 * float64(len(s.active))
	for _, w := range s.queue {
		ahead += scale(w.variants[0])
	}
	return time.Duration(ahead / float64(s.MaxActive) * float64(s.ewmaService))
}

// AdmitTraced is Admit plus an admission event on the trace: which
// variant won, out of how many candidates, and what it placed where —
// the placement decision a timeline reader needs to interpret the
// stage tracks that follow. Shedding also leaves an event, so overload
// is visible on the same timeline. A nil trace reduces to plain Admit.
func (s *Scheduler) AdmitTraced(ctx context.Context, variants []*plan.Physical, tr *obs.Trace) (*Admission, error) {
	adm, err := s.Admit(ctx, variants)
	if err != nil {
		if tr.Enabled() && errors.Is(err, ErrOverloaded) {
			tr.AddEvent(obs.Event{
				Name:   "shed",
				Track:  "sched",
				At:     0,
				Detail: err.Error(),
			})
		}
		return nil, err
	}
	if tr.Enabled() {
		tr.AddEvent(obs.Event{
			Name:  "admit",
			Track: "sched",
			At:    0,
			Detail: fmt.Sprintf("variant %q chosen from %d candidates; devices %v",
				adm.Variant, len(variants), adm.Plan.PlacedDevices()),
		})
	}
	return adm, nil
}

// Release returns an admission's resources, recomputes fair shares, and
// hands freed slots to queued waiters in FIFO order. Releasing twice is
// a caller bug and panics.
func (s *Scheduler) Release(adm *Admission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.active[adm.ID]; !ok {
		panic(fmt.Sprintf("sched: double release of admission %d", adm.ID))
	}
	delete(s.active, adm.ID)
	// A load that falls to zero keeps its entry: the keys are bounded by
	// the cluster's links and devices, and the next Admit reuses them.
	for _, l := range adm.links {
		s.linkLoad[l]--
	}
	for _, d := range adm.devices {
		s.deviceSlots[d.Name] -= adm.slots
	}
	if !adm.admitted.IsZero() {
		s.observeServiceLocked(s.svc.Clock.Since(adm.admitted), adm.Cost)
	}
	s.rebalanceLocked(adm.links)
	// Grant freed slots to waiters. The releaser admits on the waiter's
	// behalf under the lock, so a concurrent fast-path Admit cannot
	// steal the slot between signal and wake-up.
	for len(s.queue) > 0 && (s.MaxActive <= 0 || len(s.active) < s.MaxActive) {
		w := s.queue[0]
		s.queue = s.queue[1:]
		w.adm, w.err = s.admitLocked(w.variants)
		close(w.ready)
	}
	s.svc.Metrics.Gauge("sched.active").Set(float64(len(s.active)))
	s.svc.Metrics.Gauge("sched.queue.depth").Set(float64(len(s.queue)))
}

// observeServiceLocked folds one completed execution into the EWMAs.
func (s *Scheduler) observeServiceLocked(dur time.Duration, cost sim.VTime) {
	const keep = 7 // 0.7 old, 0.3 new
	if dur > 0 {
		if s.ewmaService <= 0 {
			s.ewmaService = dur
		} else {
			s.ewmaService = (keep*s.ewmaService + (10-keep)*dur) / 10
		}
	}
	if cost > 0 {
		if s.ewmaCost <= 0 {
			s.ewmaCost = cost
		} else {
			s.ewmaCost = (keep*s.ewmaCost + (10-keep)*cost) / 10
		}
	}
	s.svc.Metrics.Gauge("sched.ewma.service.ns").Set(float64(s.ewmaService))
}

// rebalanceLocked re-applies the fair-share rate limit of each link an
// admission or release just changed the load of; no other link's load
// moved. A link whose load fell to zero loses its limit.
func (s *Scheduler) rebalanceLocked(links []*fabric.Link) {
	for _, l := range links {
		k := s.linkLoad[l]
		if k <= 1 {
			l.SetRateLimit(0)
		} else {
			l.SetRateLimit(l.Bandwidth / sim.Rate(k))
		}
	}
}

// ClearLimits removes every rate limit the scheduler has set; use after
// draining all admissions in tests and experiments.
func (s *Scheduler) ClearLimits() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for l := range s.linkLoad {
		l.SetRateLimit(0)
	}
}

// ActiveCount reports the number of admitted, unreleased plans.
func (s *Scheduler) ActiveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// QueueDepth reports how many queries are parked in the admit queue.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// SetWorkers records the worker-pool width future admissions reserve;
// engines call it when their intra-query parallelism changes.
func (s *Scheduler) SetWorkers(w int) {
	s.mu.Lock()
	s.Workers = w
	s.mu.Unlock()
}

// LinkLoad reports how many active plans use the link.
func (s *Scheduler) LinkLoad(l *fabric.Link) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.linkLoad[l]
}
