// Package udf implements SciDB extensibility (§2.1, §2.3): POSTGRES-style
// user-defined functions, user-defined aggregates, array enhancement
// functions that add pseudo-coordinate systems, and shape functions for
// ragged arrays.
//
// Substitution note (see DESIGN.md): the paper loads C++ object code from a
// file_handle; here UDFs are Go functions registered by name. The dispatch
// model — "SciDB will link the required function into its address space and
// call it as needed", UDFs may call other UDFs and run queries — is
// preserved.
package udf

import (
	"fmt"
	"sort"
	"sync"

	"scidb/internal/array"
)

// Func is a registered user-defined function with an input and output
// signature, mirroring the paper's
//
//	Define function Scale10 (integer I, integer J)
//	    returns (integer K, integer L) file_handle
type Func struct {
	Name string
	In   []array.Type
	Out  []array.Type
	// Body executes the function. UDFs can internally call other UDFs via
	// the registry they were registered in.
	Body func(args []array.Value) ([]array.Value, error)
}

// Call invokes the function after checking the input arity and types.
func (f *Func) Call(args []array.Value) ([]array.Value, error) {
	if len(args) != len(f.In) {
		return nil, fmt.Errorf("udf %s: got %d args, want %d", f.Name, len(args), len(f.In))
	}
	for i, a := range args {
		if !typeCompatible(a.Type, f.In[i]) {
			return nil, fmt.Errorf("udf %s: arg %d has type %s, want %s", f.Name, i, a.Type, f.In[i])
		}
	}
	out, err := f.Body(args)
	if err != nil {
		return nil, fmt.Errorf("udf %s: %w", f.Name, err)
	}
	if len(out) != len(f.Out) {
		return nil, fmt.Errorf("udf %s: returned %d values, want %d", f.Name, len(out), len(f.Out))
	}
	return out, nil
}

func typeCompatible(got, want array.Type) bool {
	if got == want {
		return true
	}
	// Numeric coercion int <-> float, matching the executor's conversions.
	num := func(t array.Type) bool { return t == array.TInt64 || t == array.TFloat64 || t == array.TBool }
	return num(got) && num(want)
}

// Aggregate accumulates values and produces a result; user-defined
// aggregates implement this (POSTGRES-style, §2.1).
type Aggregate interface {
	Step(v array.Value)
	Result() array.Value
}

// AggregateFactory creates a fresh accumulator per group.
type AggregateFactory func() Aggregate

// MergeableAggregate is an Aggregate whose partial states combine: Merge
// folds another accumulator of the same concrete type into the receiver, as
// if the receiver had also Stepped every value the other one saw. This is
// the "combinable partial state" contract that lets Aggregate and Regrid run
// chunk-parallel (one accumulator per group per chunk, merged in chunk
// order). An aggregate that does not implement it still gets one answer at
// any parallelism: the executor keeps each group's values in iteration order
// and Steps them into a single accumulator at the end.
type MergeableAggregate interface {
	Aggregate
	Merge(o Aggregate) error
}

// NullIgnoring marks an Aggregate whose Step treats a NULL value as a no-op,
// so dropping NULL cells before they are stepped leaves its result unchanged.
type NullIgnoring interface {
	Aggregate
	IgnoresNulls()
}

// Registry holds UDFs, aggregates, enhancement builders, and shape-function
// builders. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	funcs  map[string]*Func
	aggs   map[string]AggregateFactory
	shapes map[string]func(args []int64) (array.ShapeFunc, error)
}

// NewRegistry returns a registry preloaded with the built-in aggregates
// (sum, count, avg, min, max, stdev) and built-in shape functions
// (rect, circle).
func NewRegistry() *Registry {
	r := &Registry{
		funcs:  map[string]*Func{},
		aggs:   map[string]AggregateFactory{},
		shapes: map[string]func([]int64) (array.ShapeFunc, error){},
	}
	registerBuiltinAggregates(r)
	registerBuiltinShapes(r)
	return r
}

// RegisterFunc adds a UDF. Re-registering a name replaces the function.
func (r *Registry) RegisterFunc(f *Func) error {
	if f.Name == "" || f.Body == nil {
		return fmt.Errorf("udf: function must have a name and a body")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[f.Name] = f
	return nil
}

// Func looks up a UDF by name.
func (r *Registry) Func(name string) (*Func, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.funcs[name]
	if !ok {
		return nil, fmt.Errorf("udf: unknown function %q", name)
	}
	return f, nil
}

// RegisterAggregate adds a user-defined aggregate.
func (r *Registry) RegisterAggregate(name string, f AggregateFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aggs[name] = f
}

// Aggregate looks up an aggregate factory by name.
func (r *Registry) Aggregate(name string) (AggregateFactory, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.aggs[name]
	if !ok {
		return nil, fmt.Errorf("udf: unknown aggregate %q", name)
	}
	return f, nil
}

// RegisterShape adds a named shape-function builder.
func (r *Registry) RegisterShape(name string, build func(args []int64) (array.ShapeFunc, error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shapes[name] = build
}

// Shape builds a shape function by name with the given arguments.
func (r *Registry) Shape(name string, args []int64) (array.ShapeFunc, error) {
	r.mu.RLock()
	build, ok := r.shapes[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("udf: unknown shape function %q", name)
	}
	return build(args)
}

// Names lists registered function names (for the shell's \df command).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
