// Package errcat defines the catalog of FATAL RAS event types (ERRCODEs)
// used by the synthetic Intrepid campaign. The paper observed 82 distinct
// FATAL ERRCODEs from six reporting components; after co-analysis they
// resolve into 72 system-failure types, 8 application-error types, and 2
// types that never interrupt jobs (false-fatal alarms).
//
// The catalog carries generator-side ground truth (origin class, whether
// the event interrupts co-located jobs, whether it leaves hardware faulty
// until repaired, whether it hits shared file-system/I/O infrastructure).
// Ground truth never flows into the analysis pipeline; it exists so tests
// can score the pipeline's inferences against an oracle, replacing the
// paper's verification by Argonne system administrators.
package errcat

import (
	"fmt"
	"sort"

	"repro/internal/raslog"
)

// Class is the ground-truth origin of a fatal event type.
type Class int

const (
	// ClassSystem marks failures of system hardware or software.
	ClassSystem Class = iota
	// ClassApplication marks errors introduced by users (buggy codes,
	// operation mistakes).
	ClassApplication
)

// String names the class.
func (c Class) String() string {
	if c == ClassApplication {
		return "application"
	}
	return "system"
}

// Code describes one FATAL ERRCODE type.
type Code struct {
	// Name is the ERRCODE string as it appears in RAS records.
	Name string
	// MsgID is the message-source identifier emitted with the code.
	MsgID string
	// Component is the reporting software component.
	Component raslog.Component
	// SubComponent is the functional area within the component.
	SubComponent string
	// Message is the prose description template for the event.
	Message string

	// Class is the ground-truth origin (system vs application).
	Class Class
	// Interrupting is ground truth for whether the event kills jobs
	// running at its location. The two false-fatal types
	// (BULK_POWER_FATAL, _bgp_err_torus_fatal_sum) are non-interrupting.
	Interrupting bool
	// Sticky marks system failures that leave the hardware faulty until
	// a repair completes; the scheduler keeps allocating the failed
	// midplanes meanwhile, producing job-related redundancy.
	Sticky bool
	// Shared marks failures of shared file-system / I/O infrastructure
	// that can interrupt several jobs at once (spatial propagation).
	Shared bool
	// Weight is the relative occurrence frequency of the code within
	// its class; system weights drive the fault injector, application
	// weights drive the buggy-executable generator.
	Weight float64
}

// Catalog is an immutable indexed set of codes.
type Catalog struct {
	codes  []Code
	byName map[string]int
}

// New builds a catalog from codes, rejecting duplicates.
func New(codes []Code) (*Catalog, error) {
	c := &Catalog{codes: append([]Code(nil), codes...), byName: make(map[string]int, len(codes))}
	for i, code := range c.codes {
		if code.Name == "" {
			return nil, fmt.Errorf("errcat: empty code name at index %d", i)
		}
		if _, dup := c.byName[code.Name]; dup {
			return nil, fmt.Errorf("errcat: duplicate code %q", code.Name)
		}
		if code.Weight <= 0 {
			return nil, fmt.Errorf("errcat: code %q has non-positive weight", code.Name)
		}
		c.byName[code.Name] = i
	}
	return c, nil
}

// Len returns the number of codes.
func (c *Catalog) Len() int { return len(c.codes) }

// All returns the codes in catalog order (copy).
func (c *Catalog) All() []Code { return append([]Code(nil), c.codes...) }

// Lookup returns the code by ERRCODE name.
func (c *Catalog) Lookup(name string) (Code, bool) {
	i, ok := c.byName[name]
	if !ok {
		return Code{}, false
	}
	return c.codes[i], true
}

// ByClass returns the codes of one ground-truth class, in catalog order.
func (c *Catalog) ByClass(cl Class) []Code {
	var out []Code
	for _, code := range c.codes {
		if code.Class == cl {
			out = append(out, code)
		}
	}
	return out
}

// Interrupting returns the codes with the given ground-truth
// interrupting flag.
func (c *Catalog) Interrupting(want bool) []Code {
	var out []Code
	for _, code := range c.codes {
		if code.Interrupting == want {
			out = append(out, code)
		}
	}
	return out
}

// Names returns all ERRCODE names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.codes))
	for _, code := range c.codes {
		out = append(out, code.Name)
	}
	sort.Strings(out)
	return out
}
