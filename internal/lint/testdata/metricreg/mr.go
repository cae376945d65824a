// Fixture for the metricreg analyzer: a family name declared by two
// registry calls, and the single-declaration shapes that must stay
// silent.
package mrfix

// Registry stands in for obs.Registry — metricreg matches the receiver
// and method by name so fixtures need not import the real package.
type Registry struct{}

func (r *Registry) Histogram(name, help string, labels []string, bounds []float64)       {}
func (r *Registry) CounterFunc(name, help string, fn func() float64, pairs ...string)    {}
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {}

// other has a method with a registry method's name on another type;
// its calls are not registrations.
type other struct{}

func (other) CounterFunc(name, help string, fn func() float64, pairs ...string) {}

func zero() float64 { return 0 }

func register(r *Registry, o other, dynamic string) {
	r.Histogram("fix_seconds", "Declared once.", nil, nil)
	r.CounterFunc("fix_requests_total", "Declared once.", zero, "route", "GET /")

	r.GaugeFunc("fix_dup", "First.", zero)
	r.GaugeFunc("fix_dup", "Second.", zero) // want "registered 2 times"

	// Two different registry methods still declare one family.
	r.Histogram("fix_mixed_total", "Owned.", nil, nil)
	r.CounterFunc("fix_mixed_total", "Collected.", zero) // want "registered 2 times"

	// One call site feeding several owners' series is the intended
	// shape: each cache registers cache="<name>" from here.
	for _, cache := range []string{"point", "advice"} {
		r.CounterFunc("fix_cache_hits_total", "Hits.", zero, "cache", cache)
	}

	// A computed family name is not statically known.
	r.GaugeFunc(dynamic, "Dynamic.", zero)
	r.GaugeFunc(dynamic, "Dynamic.", zero)

	// Same literal on a non-registry type: not a registration.
	o.CounterFunc("fix_seconds", "Not a registry.", zero)
}
