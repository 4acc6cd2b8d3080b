package telemetry

import "fmt"

// Snapshot codec: a versioned, self-describing form of a registry's
// state. Registry.Snapshot copies a registry out, Registry.MergeSnapshot
// folds a snapshot into a live registry (how each job's private registry
// retires into the daemon's), and the Prometheus exposition renders from
// it. Histogram buckets are sparse — only occupied buckets are listed as
// [index, count] pairs — because the fixed 496-bucket geometry is mostly
// empty for any single metric.
//
// The bucket geometry (histSubBits, histBuckets) is part of the schema:
// changing it requires bumping SnapshotSchema.

// SnapshotSchema identifies the telemetry snapshot wire format.
const SnapshotSchema = "radiomis.telemetry/v1"

// RegistrySnapshot is a point-in-time copy of every family in a registry,
// in registration order.
type RegistrySnapshot struct {
	Schema   string           `json:"schema"`
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is the wire form of one metric family. Exactly one of
// Counter/Children, Gauge, or Hist is populated, matching Kind.
type FamilySnapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind string `json:"kind"` // "counter" | "gauge" | "histogram"
	// Unit is set on histograms only: "" or "ns" for nanosecond durations
	// (exposed in seconds), "count" for dimensionless values.
	Unit string `json:"unit,omitempty"`
	// Labels are the constant labels of a labeled gauge (build_info).
	Labels []Label `json:"labels,omitempty"`
	// LabelKey is the partition key of a labeled counter family; its
	// children carry the per-value counts.
	LabelKey string         `json:"labelKey,omitempty"`
	Counter  *uint64        `json:"counter,omitempty"`
	Children []LabeledCount `json:"children,omitempty"`
	Gauge    *int64         `json:"gauge,omitempty"`
	Hist     *HistogramWire `json:"hist,omitempty"`
}

// LabeledCount is one child sample of a labeled counter family.
type LabeledCount struct {
	Value string `json:"value"`
	Count uint64 `json:"count"`
}

// HistogramWire is the sparse wire form of a histogram: only occupied
// buckets are listed, as [bucket index, observation count] pairs in
// ascending index order.
type HistogramWire struct {
	Count   uint64      `json:"count"`
	Sum     uint64      `json:"sum"`
	Max     uint64      `json:"max"`
	Buckets [][2]uint64 `json:"buckets,omitempty"`
}

// parseKind maps a wire kind string back to its Kind.
func parseKind(s string) (Kind, error) {
	switch s {
	case "counter":
		return KindCounter, nil
	case "gauge":
		return KindGauge, nil
	case "histogram":
		return KindHistogram, nil
	}
	return 0, fmt.Errorf("telemetry: unknown kind %q", s)
}

// unitName renders a histogram unit for the wire; nanoseconds is the
// default and is omitted.
func unitName(u HistUnit) string {
	if u == UnitCount {
		return "count"
	}
	return ""
}

// parseUnit maps a wire unit string back to its HistUnit.
func parseUnit(s string) (HistUnit, error) {
	switch s {
	case "", "ns":
		return UnitNanoseconds, nil
	case "count":
		return UnitCount, nil
	}
	return 0, fmt.Errorf("telemetry: unknown histogram unit %q", s)
}

// wire returns the sparse wire form of the histogram's current state.
// Concurrent observations may straddle the copy, as with Snapshot.
func (h *Histogram) wire() *HistogramWire {
	hw := &HistogramWire{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			hw.Buckets = append(hw.Buckets, [2]uint64{uint64(i), n})
		}
	}
	return hw
}

// mergeWire folds a wire histogram into h, bucket by bucket. Callers must
// have validated bucket indices (MergeSnapshot does).
func (h *Histogram) mergeWire(hw *HistogramWire) {
	for _, b := range hw.Buckets {
		h.buckets[b[0]].Add(b[1])
	}
	h.count.Add(hw.Count)
	h.sum.Add(hw.Sum)
	for {
		cur := h.max.Load()
		if hw.Max <= cur || h.max.CompareAndSwap(cur, hw.Max) {
			return
		}
	}
}

// dense expands the sparse wire form into a full HistogramSnapshot so the
// exposition helpers (CumulativeAtOrBelow, Quantile) apply unchanged.
func (hw *HistogramWire) dense() HistogramSnapshot {
	s := HistogramSnapshot{Count: hw.Count, Sum: hw.Sum, Max: hw.Max, Buckets: make([]uint64, histBuckets)}
	for _, b := range hw.Buckets {
		if b[0] < histBuckets {
			s.Buckets[b[0]] += b[1]
		}
	}
	return s
}

// snapshot returns the family's wire form.
func (f *family) snapshot() FamilySnapshot {
	fs := FamilySnapshot{
		Name:     f.name,
		Help:     f.help,
		Kind:     f.kind.String(),
		Labels:   append([]Label(nil), f.labels...),
		LabelKey: f.labelKey,
	}
	switch f.kind {
	case KindCounter:
		if f.labelKey != "" {
			fs.Children = f.childSnapshot()
		} else {
			v := f.counter.Value()
			fs.Counter = &v
		}
	case KindGauge:
		v := f.gauge.Value()
		fs.Gauge = &v
	case KindHistogram:
		fs.Unit = unitName(f.unit)
		fs.Hist = f.hist.wire()
	}
	return fs
}

// Snapshot copies every registered family into the wire form, in
// registration order. The result is independent of the registry and safe
// to serialize or merge.
func (r *Registry) Snapshot() RegistrySnapshot {
	fams := r.snapshotFamilies()
	out := RegistrySnapshot{Schema: SnapshotSchema, Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		out.Families = append(out.Families, f.snapshot())
	}
	return out
}

// Validate checks schema version, kind/unit vocabulary, name uniqueness,
// and histogram bucket indices. MergeSnapshot enforces it before any
// merge touches fixed bucket arrays.
func (s RegistrySnapshot) Validate() error {
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("telemetry: unsupported snapshot schema %q (want %q)", s.Schema, SnapshotSchema)
	}
	seen := make(map[string]bool, len(s.Families))
	for i := range s.Families {
		f := &s.Families[i]
		if f.Name == "" {
			return fmt.Errorf("telemetry: snapshot family %d has empty name", i)
		}
		if seen[f.Name] {
			return fmt.Errorf("telemetry: snapshot family %q duplicated", f.Name)
		}
		seen[f.Name] = true
		if _, err := parseKind(f.Kind); err != nil {
			return fmt.Errorf("telemetry: snapshot family %q: %w", f.Name, err)
		}
		if _, err := parseUnit(f.Unit); err != nil {
			return fmt.Errorf("telemetry: snapshot family %q: %w", f.Name, err)
		}
		if f.Hist != nil {
			for _, b := range f.Hist.Buckets {
				if b[0] >= histBuckets {
					return fmt.Errorf("telemetry: snapshot family %q: bucket index %d out of range", f.Name, b[0])
				}
			}
		}
	}
	return nil
}

// resolveForMerge resolves or creates the family a snapshot family folds
// into, returning an error (never panicking) on schema disagreement so a
// mismatched snapshot cannot crash the process folding it.
func (r *Registry) resolveForMerge(fs *FamilySnapshot, kind Kind, unit HistUnit) (*family, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[fs.Name]; ok {
		if f.kind != kind {
			return nil, fmt.Errorf("telemetry: merge %q: registered as %s, snapshot has %s", fs.Name, f.kind, kind)
		}
		if kind == KindHistogram && f.unit != unit {
			return nil, fmt.Errorf("telemetry: merge %q: histogram unit mismatch", fs.Name)
		}
		if f.labelKey != fs.LabelKey {
			return nil, fmt.Errorf("telemetry: merge %q: label key %q vs %q", fs.Name, f.labelKey, fs.LabelKey)
		}
		return f, nil
	}
	f := &family{
		name:     fs.Name,
		help:     fs.Help,
		kind:     kind,
		unit:     unit,
		labels:   append([]Label(nil), fs.Labels...),
		labelKey: fs.LabelKey,
	}
	switch kind {
	case KindCounter:
		if fs.LabelKey == "" {
			f.counter = &Counter{}
		}
	case KindGauge:
		f.gauge = &Gauge{}
	case KindHistogram:
		f.hist = NewHistogram()
	}
	r.families[fs.Name] = f
	r.names = append(r.names, fs.Name)
	return f, nil
}

// MergeSnapshot validates a snapshot and folds it into the live
// registry, registering families that don't exist yet. Counters and
// unlabeled gauges add, labeled counter children add per value, histograms
// merge bucket-wise; labeled gauges keep the registry's value when constant
// labels collide. This is the generic form of the per-metric fold the job
// manager does when a job's private registry retires into the daemon's.
func (r *Registry) MergeSnapshot(s RegistrySnapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for i := range s.Families {
		fs := &s.Families[i]
		kind, _ := parseKind(fs.Kind)
		unit, _ := parseUnit(fs.Unit)
		f, err := r.resolveForMerge(fs, kind, unit)
		if err != nil {
			return err
		}
		switch kind {
		case KindCounter:
			if f.labelKey != "" {
				for _, c := range fs.Children {
					if c.Count != 0 {
						f.childCounter(c.Value).Add(c.Count)
					}
				}
			} else if fs.Counter != nil {
				f.counter.Add(*fs.Counter)
			}
		case KindGauge:
			if fs.Gauge != nil && labelsEqual(f.labels, fs.Labels) {
				if len(f.labels) == 0 {
					f.gauge.Add(*fs.Gauge)
				} else {
					// Identity gauge with identical labels: the value is a
					// constant (1), not an accumulator.
					f.gauge.Set(*fs.Gauge)
				}
			}
		case KindHistogram:
			if fs.Hist != nil {
				f.hist.mergeWire(fs.Hist)
			}
		}
	}
	return nil
}
