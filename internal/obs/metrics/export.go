package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// HistStat is one histogram's exported summary.
type HistStat struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// RateStat is one rate meter's exported reading.
type RateStat struct {
	Total  int64   `json:"total"`
	PerSec float64 `json:"perSec"`
}

// SLOStat is one SLO tracker's exported reading.
type SLOStat struct {
	TargetNS int64   `json:"targetNs"`
	Good     int64   `json:"good"`
	Bad      int64   `json:"bad"`
	BurnRate float64 `json:"burnRate"`
}

// Snapshot is a point-in-time copy of every instrument, serializable as
// one JSON document (dfbench's periodic artifact). Cross-instrument
// consistency is monitoring-grade, not transactional.
type Snapshot struct {
	At         time.Time           `json:"at"`
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
	Rates      map[string]RateStat `json:"rates,omitempty"`
	SLOs       map[string]SLOStat  `json:"slos,omitempty"`
}

// Snapshot copies every instrument's reading at instant now; rate
// meters and SLO trackers read the window ending there. Nil registry →
// empty snapshot.
func (r *Registry) Snapshot(now time.Time) Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	s.At = now
	r.mu.RLock()
	counts := copyRefs(r.counts)
	gauges := copyRefs(r.gauges)
	hists := copyRefs(r.hists)
	rates := copyRefs(r.rates)
	slos := copyRefs(r.slos)
	r.mu.RUnlock()

	if len(counts) > 0 {
		s.Counters = make(map[string]int64, len(counts))
		for k, c := range counts {
			s.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, g := range gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistStat, len(hists))
		for k, h := range hists {
			s.Histograms[k] = HistStat{
				Count: h.Count(), Sum: h.Sum(), Max: h.Max(),
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			}
		}
	}
	if len(rates) > 0 {
		s.Rates = make(map[string]RateStat, len(rates))
		for k, m := range rates {
			s.Rates[k] = RateStat{Total: m.Total(), PerSec: m.Rate(now)}
		}
	}
	if len(slos) > 0 {
		s.SLOs = make(map[string]SLOStat, len(slos))
		for k, t := range slos {
			good, bad := t.Window(now)
			s.SLOs[k] = SLOStat{TargetNS: int64(t.Target()), Good: good, Bad: bad, BurnRate: t.BurnRate(now)}
		}
	}
	return s
}

func copyRefs[V any](m map[string]*V) map[string]*V {
	out := make(map[string]*V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// WriteJSON writes the snapshot at now as indented JSON.
func (r *Registry) WriteJSON(w io.Writer, now time.Time) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot(now))
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4): counters and gauges verbatim,
// histograms as summaries with quantile labels, rate meters as a
// _total counter plus _per_second gauge, SLO trackers as burn-rate and
// good/bad counters. Dots in names become underscores; label blocks
// built by Labels pass through. Output is sorted, so two scrapes of a
// quiesced registry are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer, now time.Time) error {
	s := r.Snapshot(now)
	bw := bufio.NewWriter(w)
	typed := make(map[string]bool)
	emitType := func(base, kind string) {
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, kind)
		}
	}

	for _, name := range sortedKeys(s.Counters) {
		base, labels := promName(name)
		emitType(base, "counter")
		fmt.Fprintf(bw, "%s%s %d\n", base, labels, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, labels := promName(name)
		emitType(base, "gauge")
		fmt.Fprintf(bw, "%s%s %s\n", base, labels, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		base, labels := promName(name)
		h := s.Histograms[name]
		emitType(base, "summary")
		for _, q := range [...]struct {
			q string
			v int64
		}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
			fmt.Fprintf(bw, "%s%s %d\n", base, promAddLabel(labels, "quantile", q.q), q.v)
		}
		fmt.Fprintf(bw, "%s_sum%s %d\n", base, labels, h.Sum)
		fmt.Fprintf(bw, "%s_count%s %d\n", base, labels, h.Count)
	}
	for _, name := range sortedKeys(s.Rates) {
		base, labels := promName(name)
		m := s.Rates[name]
		emitType(base+"_total", "counter")
		fmt.Fprintf(bw, "%s_total%s %d\n", base, labels, m.Total)
		emitType(base+"_per_second", "gauge")
		fmt.Fprintf(bw, "%s_per_second%s %s\n", base, labels, promFloat(m.PerSec))
	}
	for _, name := range sortedKeys(s.SLOs) {
		base, labels := promName(name)
		t := s.SLOs[name]
		emitType(base+"_burn_rate", "gauge")
		fmt.Fprintf(bw, "%s_burn_rate%s %s\n", base, labels, promFloat(t.BurnRate))
		emitType(base+"_good", "counter")
		fmt.Fprintf(bw, "%s_good%s %d\n", base, labels, t.Good)
		emitType(base+"_bad", "counter")
		fmt.Fprintf(bw, "%s_bad%s %d\n", base, labels, t.Bad)
	}
	return bw.Flush()
}

// promName splits a labelled registry name and sanitizes the base for
// the Prometheus grammar (dots and dashes become underscores).
func promName(name string) (base, labels string) {
	base, labels = splitName(name)
	base = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, base)
	if base == "" || base[0] >= '0' && base[0] <= '9' {
		base = "_" + base
	}
	return base, labels
}

// promAddLabel merges one more label pair into an existing (possibly
// empty) label block.
func promAddLabel(labels, key, value string) string {
	pair := key + `="` + labelEscape(value) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func promFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WriteText renders a human-oriented aligned dump for dfshell's
// \metrics view: one section per instrument kind, sorted names,
// durations humanized for *_ns / *ns series.
func (r *Registry) WriteText(w io.Writer, now time.Time) error {
	s := r.Snapshot(now)
	bw := bufio.NewWriter(w)
	section := func(title string) { fmt.Fprintf(bw, "-- %s --\n", title) }
	if len(s.Counters) > 0 {
		section("counters")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(bw, "  %-44s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		section("gauges")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(bw, "  %-44s %s\n", name, promFloat(s.Gauges[name]))
		}
	}
	if len(s.Histograms) > 0 {
		section("histograms")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(bw, "  %-44s n=%d p50=%s p95=%s p99=%s max=%s\n",
				name, h.Count, histVal(name, h.P50), histVal(name, h.P95),
				histVal(name, h.P99), histVal(name, h.Max))
		}
	}
	if len(s.Rates) > 0 {
		section("rates")
		for _, name := range sortedKeys(s.Rates) {
			m := s.Rates[name]
			fmt.Fprintf(bw, "  %-44s total=%d rate=%.1f/s\n", name, m.Total, m.PerSec)
		}
	}
	if len(s.SLOs) > 0 {
		section("slo")
		for _, name := range sortedKeys(s.SLOs) {
			t := s.SLOs[name]
			fmt.Fprintf(bw, "  %-44s target=%s good=%d bad=%d burn=%.2f\n",
				name, time.Duration(t.TargetNS), t.Good, t.Bad, t.BurnRate)
		}
	}
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Rates)+len(s.SLOs) == 0 {
		fmt.Fprintln(bw, "(no metrics recorded)")
	}
	return bw.Flush()
}

// histVal renders a histogram statistic, humanizing nanosecond series.
func histVal(name string, v int64) string {
	base, _ := splitName(name)
	if strings.HasSuffix(base, "ns") || strings.HasSuffix(base, ".ns") || strings.HasSuffix(base, ".vns") {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}
