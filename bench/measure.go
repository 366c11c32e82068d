package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

const (
	blocks     = 5  // equal parts of the measured phase, to see drift inside it
	checkEvery = 16 // measured ops between oracle checks; warm-up checks every op
	rssEvery   = 10 * time.Millisecond
)

// phase is what one closed loop of ops measured: one client issues the
// next op when the previous one has returned.
type phase struct {
	ops, failed int
	firstErr    error
	lat         []time.Duration // successful ops, in issue order
	opCPU       []time.Duration // process CPU (user+sys) spent while each of them ran
	blockEnds   []int           // len(lat) at the end of each block
	blockRSS    []uint64        // bytes, highest VmRSS seen between the ops of each block
	opTime      time.Duration   // sum of lat: the measured seconds
	virt        virtual

	cpu        time.Duration // getrusage user+sys over the blocks, GC between ops included
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	calib      []time.Duration // hostCalib before the phase and after each block
}

// run issues ops for seconds (or exactly maxOps ops when maxOps > 0),
// checking every checkEvery-th result against the oracle. An op that
// returns an error or misses the oracle is counted as failed and its
// latency is dropped.
func (p *phase) run(d driver, seconds float64, maxOps, checkEvery int) {
	p.lat = make([]time.Duration, 0, 1<<18)
	p.opCPU = make([]time.Duration, 0, 1<<18)
	rss := openRSS()
	defer rss.close()
	p.calib = append(p.calib, hostCalib())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	lastRSS := start
	for b := 1; b <= blocks; b++ {
		blockEnd := start.Add(time.Duration(seconds * float64(b) / blocks * float64(time.Second)))
		opsEnd := maxOps * b / blocks
		var peak uint64
		for {
			if maxOps > 0 && p.ops >= opsEnd || maxOps == 0 && !time.Now().Before(blockEnd) {
				break
			}
			c0 := cpuTime()
			t0 := time.Now()
			res, err := d.op()
			t1 := time.Now()
			c1 := cpuTime()
			p.ops++
			if err == nil {
				err = d.settle(res, p.ops%checkEvery == 0, &p.virt)
			}
			if err != nil {
				p.fail(err)
				continue
			}
			p.lat = append(p.lat, t1.Sub(t0))
			p.opCPU = append(p.opCPU, c1-c0)
			p.opTime += t1.Sub(t0)
			if t1.Sub(lastRSS) >= rssEvery {
				lastRSS = t1
				peak = max(peak, rss.read())
			}
		}
		p.blockEnds = append(p.blockEnds, len(p.lat))
		p.blockRSS = append(p.blockRSS, max(peak, rss.read()))
		p.cpu += cpuTime() - cpu0
		p.calib = append(p.calib, hostCalib())
		cpu0 = cpuTime()
	}
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if err := d.finish(&p.virt); err != nil {
		p.fail(err)
	}
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// quietQuantile is the quantile of per-op wall and CPU time the
// end-to-end metrics report. On a shared host, interference only ever
// adds time and it comes in bursts of a few ops to a few seconds, so a
// low quantile is what the op costs on an undisturbed machine, and it is
// the only statistic of a phase that two runs of the same code agree on
// (see README.md, "Noise"). The whole-phase median and means are
// reported too, as engine.* per-layer metrics without a bound.
const quietQuantile = 0.05

// endToEnd derives the end-to-end metrics from a measured phase.
func (p *phase) endToEnd(w *benchWorkload, setupS, storedPerRow float64) (map[string]float64, error) {
	if len(p.lat) == 0 || p.virt.ops == 0 {
		return nil, fmt.Errorf("bench: %s: no op succeeded: %v", w.name, p.firstErr)
	}
	ops := float64(p.ops)
	wall := quantile(durationsMs(p.lat), quietQuantile)
	return map[string]float64{
		"setup_s":         setupS,
		"wall_p05_ms":     wall,
		"rows_per_s":      float64(w.inputRows) / (wall / 1e3),
		"cpu_p05_ms":      quantile(durationsMs(p.opCPU), quietQuantile),
		"allocs_per_op":   float64(p.mallocs) / ops,
		"alloc_kb_per_op": float64(p.allocBytes) / 1024 / ops,
		"peak_rss_mb":     float64(slices.Min(p.blockRSS)) / (1 << 20),
		// Divide the integers first: that quotient is rounded once, so it
		// does not depend on how many ops the phase happened to fit.
		"sim_time_us_per_op":   float64(p.virt.simTime) / float64(p.virt.ops) / 1e3,
		"moved_bytes_per_op":   float64(p.virt.moved) / float64(p.virt.ops),
		"stored_bytes_per_row": storedPerRow,
	}, nil
}

// engineLayer is the part of the per-layer metrics that describes the
// measured phase as a whole: its median and means, its tail, its drift
// and its garbage collection.
func (p *phase) engineLayer(w *benchWorkload) map[string]float64 {
	all := durationsMs(p.lat)
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	tail, pct := tailPercentile(sorted)
	ops := float64(max(p.ops, 1))
	return map[string]float64{
		"engine.wall_p50_ms":        median(all),
		"engine.wall_tail_ms":       tail,
		"engine.wall_tail_pct":      pct,
		"engine.samples":            float64(len(all)),
		"engine.rows_per_s":         float64(w.inputRows) * float64(len(all)) / p.opTime.Seconds(),
		"engine.cpu_ms_per_op":      ms(p.cpu) / ops,
		"engine.block_spread_pct":   blockSpreadPct(p.blockMedians()),
		"engine.host_calib_ms":      median(durationsMs(p.calib)),
		"engine.gc_cycles_per_op":   float64(p.gcCycles) / ops,
		"engine.gc_pause_ms_per_op": ms(p.gcPause) / ops,
	}
}

// blockMedians is the median op latency, in ms, of each block that
// completed an op.
func (p *phase) blockMedians() []float64 {
	all := durationsMs(p.lat)
	var out []float64
	from := 0
	for _, end := range p.blockEnds {
		if end > from {
			out = append(out, median(all[from:end]))
		}
		from = end
	}
	return out
}

// meanMs is the mean op latency, the base of the harness's own tracing
// overhead.
func (p *phase) meanMs() float64 { return mean(durationsMs(p.lat)) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssReader reads VmRSS from /proc/self/statm without allocating, so
// sampling it between ops does not show in the allocation metrics.
type rssReader struct {
	f   *os.File
	buf [128]byte
}

func openRSS() *rssReader {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return &rssReader{}
	}
	return &rssReader{f: f}
}

func (r *rssReader) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// read returns the resident set in bytes, 0 where /proc is missing.
func (r *rssReader) read() uint64 {
	if r.f == nil {
		return 0
	}
	n, _ := r.f.ReadAt(r.buf[:], 0)
	// statm is "size resident shared ..." in pages.
	i := 0
	for i < n && r.buf[i] != ' ' {
		i++
	}
	var pages uint64
	for i++; i < n && r.buf[i] >= '0' && r.buf[i] <= '9'; i++ {
		pages = pages*10 + uint64(r.buf[i]-'0')
	}
	return pages * uint64(os.Getpagesize())
}

var calibSink uint64

// hostCalib times a fixed pure-Go kernel (xorshift plus stores into a
// cache-resident buffer). It calls nothing in the program, so when it
// moves between two runs the machine moved, not the code.
func hostCalib() time.Duration {
	var buf [1 << 12]uint64
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&(1<<12-1)] += x
	}
	d := time.Since(t0)
	calibSink += buf[0] + x
	return d
}
