package main

import (
	"strconv"
	"strings"
)

// cpuLayers and heapLayers are the layers whose CPU and in-use heap get
// their own metric. Every other internal/ package is charged to other,
// so each list's metrics, with other, sum to the profile's total.
var (
	cpuLayers  = []string{"sim", "radio", "mac", "core", "frame", "mobility", "runtime.gc", "other"}
	heapLayers = []string{"sim", "radio", "core", "frame", "experiment", "other"}
)

// countMetrics are work counts read from the obs recordings. Delivered
// and completed work is better higher; all other work is better lower.
var countMetrics = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.heap_peak", "count", "lower"},
	{"radio.tx", "count", "lower"},
	{"radio.deliveries", "count", "higher"},
	{"radio.collisions", "count", "lower"},
	{"radio.losses", "count", "lower"},
	{"radio.halfduplex", "count", "lower"},
	{"bp.sent", "count", "lower"},
	{"bp.delivered", "count", "higher"},
	{"bp.dropped", "count", "lower"},
	{"core.src_tx", "count", "lower"},
	{"core.delivered", "count", "higher"},
	{"core.src_drop", "count", "lower"},
	{"core.salvage_req", "count", "lower"},
	{"core.salvaged", "count", "higher"},
	{"core.anchor_changes", "count", "lower"},
	{"core.index_local", "count", "lower"},
	{"core.index_gossip", "count", "lower"},
	{"core.aux", "count", "lower"},
	{"wl.cbr.completed", "count", "higher"},
	{"wl.cbr.aborted", "count", "lower"},
	{"wl.tcp.completed", "count", "higher"},
	{"wl.tcp.aborted", "count", "lower"},
	{"wl.voip.completed", "count", "higher"},
	{"wl.voip.aborted", "count", "lower"},
	{"wl.web.completed", "count", "higher"},
	{"wl.web.aborted", "count", "lower"},
	{"shard.0.rounds", "count", "lower"},
	{"shard.0.stalled", "count", "lower"},
	{"shard.1.rounds", "count", "lower"},
	{"shard.1.stalled", "count", "lower"},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{{"profile.cpu_s", "s", "lower"}}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_s", "s", "lower"})
	}
	for _, l := range heapLayers {
		defs = append(defs, metricDef{l + ".heap_mb", "MB", "lower"})
	}
	defs = append(defs,
		metricDef{"sim.ns_per_event", "ns", "lower"},
		metricDef{"radio.us_per_tx", "us", "lower"},
		metricDef{"core.heap_bytes_per_radio", "B", "lower"},
	)
	defs = append(defs, countMetrics...)
	return append(defs,
		metricDef{"radio.useful_ratio", "ratio", "higher"},
		metricDef{"bp.drop_ratio", "ratio", "lower"},
		metricDef{"lanes.idle_ratio", "ratio", "lower"},
		metricDef{"lanes.balance", "ratio", "lower"},
		metricDef{"experiment.jobs", "count", "lower"},
		metricDef{"experiment.cache_hit_ratio", "ratio", "higher"},
		metricDef{"span.setup_s", "s", "lower"},
		metricDef{"span.step_s", "s", "lower"},
		metricDef{"span.finish_s", "s", "lower"},
		metricDef{"span.report_s", "s", "lower"},
		metricDef{"serial.wall_s", "s", "lower"},
		metricDef{"parallel_over_serial", "ratio", "lower"},
		metricDef{"trace_overhead_frac", "frac", "lower"},
	)
}

// perLayer computes the per-layer metrics of a traced run. Profile and
// span figures are means over the profiled iterations, so the layers'
// CPU adds up to profile.cpu_s. Counts are those of the last profiled
// iteration: every iteration of one seed simulates the same events.
func (r *result) perLayer() map[string]float64 {
	ms := zeroMetrics(perLayer)
	its := r.traced()
	if len(its) == 0 {
		return ms
	}
	n := float64(len(its))
	var cpuTotal float64
	for _, it := range its {
		for l, ns := range it.prof.cpu {
			ms[foldLayer(l, cpuLayers)+".cpu_s"] += float64(ns) / 1e9 / n
			cpuTotal += float64(ns) / 1e9 / n
		}
		for l, b := range it.prof.inuse {
			ms[foldLayer(l, heapLayers)+".heap_mb"] += float64(b) / 1e6 / n
		}
		ms["span.setup_s"] += it.setup.Seconds() / n
		ms["span.step_s"] += it.step.Seconds() / n
		ms["span.finish_s"] += it.finish.Seconds() / n
		ms["span.report_s"] += it.render.Seconds() / n
	}
	ms["profile.cpu_s"] = cpuTotal

	last := its[len(its)-1]
	c := last.counts
	for _, d := range countMetrics {
		ms[d.name] = c[d.name]
	}
	ms["sim.ns_per_event"] = ratio(ms["sim.cpu_s"]*1e9, c["sim.events"])
	ms["radio.us_per_tx"] = ratio(ms["radio.cpu_s"]*1e6, c["radio.tx"])
	if last.radios > 0 {
		ms["core.heap_bytes_per_radio"] = ms["core.heap_mb"] * 1e6 / float64(last.radios)
	}
	outcomes := c["radio.deliveries"] + c["radio.collisions"] + c["radio.losses"] + c["radio.halfduplex"]
	ms["radio.useful_ratio"] = ratio(c["radio.deliveries"], outcomes)
	ms["bp.drop_ratio"] = ratio(c["bp.dropped"], c["bp.sent"])
	ms["experiment.jobs"] = float64(last.jobs)
	ms["experiment.cache_hit_ratio"] = ratio(float64(last.hits), float64(last.jobs+last.hits))

	if k := len(r.par); k > 0 {
		// Shard and lane counts exist only in the parallel iterations.
		pc := r.par[k-1].counts
		for _, d := range countMetrics {
			if strings.HasPrefix(d.name, "shard.") {
				ms[d.name] = pc[d.name]
			}
		}
		ms["lanes.idle_ratio"], ms["lanes.balance"] = lanes(pc)
	}
	ms["serial.wall_s"] = median(walls(r.untraced()))
	ms["parallel_over_serial"] = ratio(median(walls(r.par)), ms["serial.wall_s"])
	ms["trace_overhead_frac"] = ratio(median(walls(its)), ms["serial.wall_s"]) - 1
	return ms
}

func walls(its []*iteration) []float64 {
	vs := make([]float64, len(its))
	for i, it := range its {
		vs[i] = it.wall().Seconds()
	}
	return vs
}

// foldLayer charges a layer without a metric of its own to other.
func foldLayer(l string, kept []string) string {
	for _, k := range kept {
		if k == l {
			return l
		}
	}
	return "other"
}

// lanes summarises the shard.<i> series: the share of barrier rounds a
// shard or lane sat idle, and the busiest one's events over the mean. A
// serial run is one lane, never idle and perfectly balanced.
func lanes(c map[string]float64) (idle, balance float64) {
	var rounds, stalled, sum, most float64
	k := 0
	for ; ; k++ {
		ev, ok := c[shardKey(k, "events")]
		if !ok {
			break
		}
		rounds += c[shardKey(k, "rounds")]
		stalled += c[shardKey(k, "stalled")]
		sum += ev
		most = max(most, ev)
	}
	if k == 0 || sum == 0 {
		return 0, 1
	}
	return ratio(stalled, rounds), most / (sum / float64(k))
}

func shardKey(i int, field string) string {
	return "shard." + strconv.Itoa(i) + "." + field
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
