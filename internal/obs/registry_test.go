package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryRejectsDuplicatesAndConflicts: every family is declared
// once. A second declaration of the same name, a func series whose
// help, type or label names differ from the family's, and a func
// series repeating a label set all panic at registration.
func TestRegistryRejectsDuplicatesAndConflicts(t *testing.T) {
	zero := func() float64 { return 0 }
	for name, register := range map[string]func(r *Registry){
		"histogram twice": func(r *Registry) {
			r.Histogram("x_seconds", "x", nil, nil)
			r.Histogram("x_seconds", "x", nil, nil)
		},
		"counter twice": func(r *Registry) {
			r.CounterFunc("x_total", "x", zero)
			r.CounterFunc("x_total", "x", zero)
		},
		"func over owned family": func(r *Registry) {
			r.Histogram("x_seconds", "x", nil, nil)
			r.CounterFunc("x_seconds", "x", zero)
		},
		"owned over func family": func(r *Registry) {
			r.GaugeFunc("x", "x", zero)
			r.Histogram("x", "x", nil, nil)
		},
		"same label values": func(r *Registry) {
			r.CounterFunc("x_total", "x", zero, "cache", "point")
			r.CounterFunc("x_total", "x", zero, "cache", "point")
		},
		"unlabelled twice": func(r *Registry) {
			r.GaugeFunc("x", "x", zero)
			r.GaugeFunc("x", "x", zero)
		},
		"different type": func(r *Registry) {
			r.CounterFunc("x", "x", zero, "cache", "point")
			r.GaugeFunc("x", "x", zero, "cache", "advice")
		},
		"different help": func(r *Registry) {
			r.CounterFunc("x_total", "x", zero, "cache", "point")
			r.CounterFunc("x_total", "y", zero, "cache", "advice")
		},
		"different label names": func(r *Registry) {
			r.CounterFunc("x_total", "x", zero, "cache", "point")
			r.CounterFunc("x_total", "x", zero, "store", "advice")
		},
		"odd label list": func(r *Registry) {
			r.GaugeFunc("x", "x", zero, "cache")
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("registration did not panic")
				}
			}()
			register(NewRegistry())
		})
	}
}

// TestRegistryRender: families render in registration order, each
// declared once however many owners contribute series, with integral
// values printed as integers.
func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	hits := map[string]float64{"point": 3, "advice": 0}
	for _, cache := range []string{"point", "advice"} {
		r.CounterFunc("x_hits_total", "Hits.", func() float64 { return hits[cache] }, "cache", cache)
	}
	r.GaugeFunc("x_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	lat := r.Histogram("x_seconds", "Latency.", []string{"route"}, []float64{1})
	lat.Observe(2, "GET /b")
	lat.Observe(0.5, "GET /a")
	lat.Observe(0.5, "GET /b")
	scrapes := 0
	r.OnScrape(func() { scrapes++ })

	var b bytes.Buffer
	r.Render(&b)
	want := `# HELP x_hits_total Hits.
# TYPE x_hits_total counter
x_hits_total{cache="point"} 3
x_hits_total{cache="advice"} 0
# HELP x_uptime_seconds Uptime.
# TYPE x_uptime_seconds gauge
x_uptime_seconds 1.5
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{route="GET /a",le="1"} 1
x_seconds_bucket{route="GET /a",le="+Inf"} 1
x_seconds_sum{route="GET /a"} 0.5
x_seconds_count{route="GET /a"} 1
x_seconds_bucket{route="GET /b",le="1"} 1
x_seconds_bucket{route="GET /b",le="+Inf"} 2
x_seconds_sum{route="GET /b"} 2.5
x_seconds_count{route="GET /b"} 2
`
	if got := b.String(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
	if scrapes != 1 {
		t.Errorf("scrape hook ran %d times, want 1", scrapes)
	}
	if strings.Count(b.String(), "# TYPE x_hits_total") != 1 {
		t.Error("shared family declared more than once")
	}
}

// TestRegistryConcurrentUse: owners register late (a trace store on
// first open) while traffic observes histograms and scrapes run; under
// -race every path must be synchronized, and each scrape must see each
// family declared once.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	lat := r.Histogram("x_seconds", "Latency.", []string{"route"}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				route := fmt.Sprintf("r%d", i%3)
				lat.Observe(0.01, route)
				r.GaugeFunc("x_store_bytes", "Bytes.", func() float64 { return 1 }, "store", fmt.Sprintf("s%d-%d", g, i))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var b bytes.Buffer
				r.Render(&b)
				if n := strings.Count(b.String(), "# TYPE x_store_bytes "); n > 1 {
					t.Errorf("family declared %d times in one scrape", n)
				}
			}
		}()
	}
	wg.Wait()
	var b bytes.Buffer
	r.Render(&b)
	if got := strings.Count(b.String(), "x_store_bytes{"); got != 200 {
		t.Errorf("rendered %d store series, want 200", got)
	}
	if !strings.Contains(b.String(), `x_seconds_count{route="r0"} 68`) {
		t.Errorf("histogram lost observations:\n%s", b.String())
	}
}
