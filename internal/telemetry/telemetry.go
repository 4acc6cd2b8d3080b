// Package telemetry is the repo's performance-telemetry substrate: a
// lightweight metrics registry of atomic counters, gauges, and streaming
// fixed-log-bucket duration histograms (p50/p90/p99 without retaining
// samples), plus a Prometheus text-exposition writer.
//
// It is deliberately separate from internal/obs: obs answers *what the
// simulated algorithm did* (reception outcomes, phase-attributed energy —
// simulation semantics), telemetry answers *where wall-clock time and
// resources went* (queue waits, trial durations, barrier stalls — host
// performance). Telemetry is always out-of-band: nothing registered here
// may influence a simulation result, and every instrumented hot path must
// be zero-allocation (and near-zero cost) when no registry is attached.
// See docs/observability.md for the layer split and the metric family
// reference.
//
// All operations on Counter, Gauge, and Histogram are safe for concurrent
// use and allocation-free. Registration (Registry.Counter etc.) takes a
// mutex and is idempotent — re-registering a name returns the existing
// instrument — so instruments can be resolved at use sites without
// plumbing them individually.
package telemetry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Kind discriminates the instrument families a Registry holds.
type Kind int

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// HistUnit selects how a histogram's raw uint64 observations are rendered
// at exposition time.
type HistUnit int

const (
	// UnitNanoseconds marks duration histograms: observations are
	// nanoseconds, exposed in seconds under sub-second `le` bounds.
	UnitNanoseconds HistUnit = iota
	// UnitCount marks dimensionless histograms (sizes, cardinalities):
	// observations are exposed as-is under integer `le` bounds.
	UnitCount
)

// Label is one constant key/value annotation on a metric sample, rendered
// as `name{key="value"}` in the Prometheus exposition.
type Label struct {
	Key   string
	Value string
}

// family is one registered metric family: a name, its help text, and
// exactly one instrument (or, for a labeled counter family, one child
// instrument per label value).
type family struct {
	name string
	help string
	kind Kind
	unit HistUnit // histograms only

	// labels are constant labels stamped on the family's single sample
	// (the `radiomisd_build_info{version=...}` idiom); counter-vec
	// families use labelKey/children instead.
	labels []Label
	// labelKey, when non-empty, marks a counter family partitioned by one
	// label: each distinct label value owns a child Counter.
	labelKey string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	childMu    sync.Mutex
	children   map[string]*Counter
	childOrder []string // label values in first-use order
}

// childCounter resolves (creating on first use) the child for one label
// value of a counter-vec family.
func (f *family) childCounter(value string) *Counter {
	f.childMu.Lock()
	defer f.childMu.Unlock()
	if c, ok := f.children[value]; ok {
		return c
	}
	if f.children == nil {
		f.children = make(map[string]*Counter)
	}
	c := &Counter{}
	f.children[value] = c
	f.childOrder = append(f.childOrder, value)
	return c
}

// labeledCount is one child sample of a counter-vec family.
type labeledCount struct {
	value string
	count uint64
}

// childSnapshot returns the family's labeled counter samples in first-use
// order.
func (f *family) childSnapshot() []labeledCount {
	f.childMu.Lock()
	defer f.childMu.Unlock()
	out := make([]labeledCount, 0, len(f.childOrder))
	for _, v := range f.childOrder {
		out = append(out, labeledCount{value: v, count: f.children[v].Value()})
	}
	return out
}

// Registry holds named metric families. The zero value is not usable; use
// New. Instrumented code paths treat "no registry" (FromContext returning
// nil) as telemetry disabled and must skip all instrument calls — the
// instrument types do not accept nil receivers.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register resolves or creates the named family, enforcing kind and unit
// consistency. Help text from the first registration wins.
func (r *Registry) register(name, help string, kind Kind, unit HistUnit) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %q registered as %s, requested as %s", name, f.kind, kind))
		}
		if f.unit != unit {
			panic(fmt.Sprintf("telemetry: %q registered with unit %d, requested with %d", name, f.unit, unit))
		}
		if f.labelKey != "" {
			panic(fmt.Sprintf("telemetry: %q registered as a labeled counter family, requested unlabeled", name))
		}
		return f
	}
	return r.add(&family{name: name, help: help, kind: kind, unit: unit})
}

// add gives f the instrument its kind needs (a counter-vec family gets
// its children on first use) and appends it to the registration order.
// r.mu must be held.
func (r *Registry) add(f *family) *family {
	switch {
	case f.kind == KindCounter && f.labelKey == "":
		f.counter = &Counter{}
	case f.kind == KindGauge:
		f.gauge = &Gauge{}
	case f.kind == KindHistogram:
		f.hist = NewHistogram()
	}
	r.families[f.name] = f
	r.names = append(r.names, f.name)
	return f
}

// Counter resolves (registering on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, UnitNanoseconds).counter
}

// Gauge resolves (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, UnitNanoseconds).gauge
}

// LabeledGauge resolves (registering on first use) the named gauge whose
// single sample carries the given constant labels (the
// `build_info{version="..."} 1` idiom). Re-registering with a different
// label set panics: constant labels are identity, not state.
func (r *Registry) LabeledGauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != KindGauge {
			panic(fmt.Sprintf("telemetry: %q registered as %s, requested as gauge", name, f.kind))
		}
		if !labelsEqual(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: %q re-registered with different constant labels", name))
		}
		return f.gauge
	}
	return r.add(&family{name: name, help: help, kind: KindGauge, labels: append([]Label(nil), labels...)}).gauge
}

// CounterVec is a counter family partitioned by one label key: each
// distinct label value resolves (via With) to its own monotonically
// increasing child Counter. Children are created on first use and exposed
// as separate `name{key="value"}` samples.
type CounterVec struct {
	f *family
}

// CounterVec resolves (registering on first use) the named labeled counter
// family. Re-registering with a different label key panics.
func (r *Registry) CounterVec(name, help, labelKey string) CounterVec {
	if labelKey == "" {
		panic("telemetry: CounterVec requires a non-empty label key")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != KindCounter {
			panic(fmt.Sprintf("telemetry: %q registered as %s, requested as counter", name, f.kind))
		}
		if f.labelKey != labelKey {
			panic(fmt.Sprintf("telemetry: %q registered with label key %q, requested with %q", name, f.labelKey, labelKey))
		}
		return CounterVec{f: f}
	}
	return CounterVec{f: r.add(&family{name: name, help: help, kind: KindCounter, labelKey: labelKey})}
}

// With resolves the child counter for one label value.
func (v CounterVec) With(value string) *Counter {
	return v.f.childCounter(value)
}

// labelsEqual reports whether two constant label lists are identical
// (order-sensitive: constant labels are declared, not collected).
func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Histogram resolves (registering on first use) the named duration
// histogram. By convention histogram names end in "_seconds"; observations
// are recorded in nanoseconds and converted at exposition time.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, KindHistogram, UnitNanoseconds).hist
}

// CountHistogram resolves (registering on first use) the named
// dimensionless histogram: observations are plain counts (batch sizes,
// cardinalities) exposed under integer `le` bounds rather than seconds.
func (r *Registry) CountHistogram(name, help string) *Histogram {
	return r.register(name, help, KindHistogram, UnitCount).hist
}

// LookupHistogram returns the named histogram if it has been registered,
// without creating it. It reports false when the name is absent or bound
// to a different kind.
func (r *Registry) LookupHistogram(name string) (*Histogram, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != KindHistogram {
		return nil, false
	}
	return f.hist, true
}

// LookupCounter returns the named counter if it has been registered,
// without creating it.
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != KindCounter || f.labelKey != "" {
		return nil, false
	}
	return f.counter, true
}

// snapshotFamilies returns the families in registration order; the slice
// is private to the caller, the *family values are shared.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.families[name])
	}
	return out
}

// Merge folds every family of src into r, in src's registration order,
// registering the families r lacks with src's help text; it is how a
// finished job's private registry retires into the daemon's. Counters,
// unlabeled gauges and counter-vec children add, and histograms merge
// bucket-wise. A labeled gauge is an identity, not an accumulator: it
// takes src's value only where the constant labels match, and otherwise
// keeps r's. A family registered in both with a different kind,
// histogram unit or label key is an error, never a panic; the families
// before it are folded by then. Merge src once it is quiescent: like
// Histogram.Merge, the fold is atomic per instrument, not across them.
func (r *Registry) Merge(src *Registry) error {
	for _, sf := range src.snapshotFamilies() {
		f, err := r.resolveForMerge(sf)
		if err != nil {
			return err
		}
		switch sf.kind {
		case KindCounter:
			if sf.labelKey == "" {
				f.counter.Add(sf.counter.Value())
				break
			}
			for _, c := range sf.childSnapshot() {
				if c.count != 0 {
					f.childCounter(c.value).Add(c.count)
				}
			}
		case KindGauge:
			if !labelsEqual(f.labels, sf.labels) {
				break
			}
			if len(f.labels) == 0 {
				f.gauge.Add(sf.gauge.Value())
			} else {
				f.gauge.Set(sf.gauge.Value())
			}
		case KindHistogram:
			f.hist.Merge(sf.hist)
		}
	}
	return nil
}

// resolveForMerge returns r's family for src family sf, registering a
// copy of sf's schema when r has none.
func (r *Registry) resolveForMerge(sf *family) (*family, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[sf.name]
	switch {
	case !ok:
		return r.add(&family{name: sf.name, help: sf.help, kind: sf.kind, unit: sf.unit,
			labels: append([]Label(nil), sf.labels...), labelKey: sf.labelKey}), nil
	case f.kind != sf.kind:
		return nil, fmt.Errorf("telemetry: merge %q: registered as %s, source has %s", sf.name, f.kind, sf.kind)
	case f.unit != sf.unit:
		return nil, fmt.Errorf("telemetry: merge %q: histogram unit mismatch", sf.name)
	case f.labelKey != sf.labelKey:
		return nil, fmt.Errorf("telemetry: merge %q: label key %q vs %q", sf.name, f.labelKey, sf.labelKey)
	}
	return f, nil
}

// registryKey carries a *Registry on a context.
type registryKey struct{}

// WithRegistry returns a context carrying reg. Instrumented layers
// (harness trials, the radiomisd job loop) resolve it with FromContext and
// stay silent — and allocation-free — when none is attached.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, registryKey{}, reg)
}

// FromContext extracts the registry installed by WithRegistry, or nil.
func FromContext(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	reg, _ := ctx.Value(registryKey{}).(*Registry)
	return reg
}
