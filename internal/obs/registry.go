package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is the one metrics registry behind /metrics. A family is
// declared once — name, help, type and label names — and its samples
// come from exactly one place: a histogram the registry owns, or
// collect funcs supplied by the owners of values they already
// keep (a cache's hit counter, a queue's depth), one per fixed label
// set. Owners register at construction, so nothing that exists can be
// missing from a scrape; registering a family twice, or with a
// different shape, panics.
type Registry struct {
	// scrape serializes Render, so the state an OnScrape hook writes
	// for collect funcs to read belongs to one scrape at a time. It is
	// held across collect funcs; mu never is, so a collect func may take
	// any lock its owner holds while registering.
	scrape sync.Mutex

	mu     sync.Mutex
	fams   []*family          // registration order; guarded by mu
	byName map[string]*family // guarded by mu
	hooks  []func()           // run before each scrape; guarded by mu
}

// family is one declared metric family and its single sample source.
// Everything but funcs is fixed at declaration.
type family struct {
	name, help, typ string
	labels          []string

	hist  *HistogramVec // registry-owned histogram, or
	funcs []funcSeries  // owner-supplied samples; guarded by Registry.mu
}

// funcSeries is one owner-supplied sample with fixed label values.
type funcSeries struct {
	values []string
	fn     func() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// declareLocked adds a new family, panicking if the name is taken.
// Callers hold r.mu.
func (r *Registry) declareLocked(f *family) *family {
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: metric family %s registered twice", f.name))
	}
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
	return f
}

// Histogram registers a registry-owned histogram family (nil bounds:
// DefBuckets).
func (r *Registry) Histogram(name, help string, labels []string, bounds []float64) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.declareLocked(&family{name: name, help: help, typ: "histogram", labels: labels,
		hist: newHistogramVec(name, labels, bounds)}).hist
}

// CounterFunc registers one counter sample read from fn at scrape
// time. labelPairs alternate label names and fixed values; further
// samples of the same family (one per cache, say) register with the
// same name, help and label names and different values.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.addFunc(name, help, "counter", fn, labelPairs)
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.addFunc(name, help, "gauge", fn, labelPairs)
}

func (r *Registry) addFunc(name, help, typ string, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: metric family %s registered with an odd label list", name))
	}
	var labels, values []string
	for i := 0; i < len(labelPairs); i += 2 {
		labels = append(labels, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = r.declareLocked(&family{name: name, help: help, typ: typ, labels: labels})
	}
	if f.hist != nil || f.help != help || f.typ != typ || !slices.Equal(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric family %s re-registered with a conflicting shape", name))
	}
	for _, s := range f.funcs {
		if slices.Equal(s.values, values) {
			panic(fmt.Sprintf("obs: metric family %s registered twice for labels %v", name, values))
		}
	}
	f.funcs = append(f.funcs, funcSeries{values: values, fn: fn})
}

// OnScrape runs fn at the start of every scrape, before any collect
// func, so one shared sample (the Go runtime's telemetry) can feed
// several families. Scrapes are serialized, so state fn writes and
// collect funcs read needs no lock of its own.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// Render writes every family in registration order in Prometheus text
// exposition format: # HELP and # TYPE, then the samples. A family
// with no samples yet (a histogram never observed) still declares
// itself.
func (r *Registry) Render(w io.Writer) {
	r.scrape.Lock()
	defer r.scrape.Unlock()
	r.mu.Lock()
	fams := r.fams
	funcs := make([][]funcSeries, len(fams))
	for i, f := range fams {
		funcs[i] = f.funcs
	}
	hooks := r.hooks
	r.mu.Unlock()

	for _, h := range hooks {
		h()
	}
	var b []byte
	for i, f := range fams {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.hist != nil {
			b = f.hist.appendSamples(b)
		}
		for _, s := range funcs[i] {
			b = appendValue(appendName(b, f.name, "", f.labels, s.values, ""), s.fn())
		}
	}
	_, _ = w.Write(b)
}

// appendName renders a sample's name plus suffix and its label set,
// with an le label last when le is non-empty, then the separating
// space.
func appendName(b []byte, name, suffix string, labels, values []string, le string) []byte {
	b = append(append(b, name...), suffix...)
	sep := byte('{')
	for i, l := range labels {
		b = append(append(append(b, sep), l...), '=')
		b = strconv.AppendQuote(b, values[i])
		sep = ','
	}
	if le != "" {
		b = strconv.AppendQuote(append(append(b, sep), "le="...), le)
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendValue renders a sample value and ends the row: integral values
// as integers (a counter reads "1", not "1e+00"), everything else in
// Go's shortest float form.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

// sortedKeys returns a label-keyed map's keys in scrape order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// splitLabels undoes the labelSep join of n label values.
func splitLabels(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.Split(key, labelSep)
}
