// Middlebox state migration (§3.3 / Fig 1c: a roaming device carries
// its PVN across access networks). Stateful boxes — the split-TCP
// proxy's connection table, the classifier's flow labels, the PII
// detector's counters — lose their value if every handover cold-starts
// them. StatefulBox lets a deployment export each box's migratable
// state before teardown and import it into the instances the new
// network booted, so handover continues connections instead of
// resetting them. Boxes without state migrate trivially (they simply
// don't implement the interface).
package middlebox

import "fmt"

// StatefulBox is implemented by middlebox types whose usefulness
// depends on accumulated state. ExportState serializes the migratable
// state; ImportState merges a previously exported snapshot into the
// (typically fresh) box. Serialization must be deterministic for a
// given state so migrations are reproducible run-to-run.
type StatefulBox interface {
	Box
	ExportState() ([]byte, error)
	ImportState(data []byte) error
}

// ExportState serializes the named instance's box state. ok is false
// when the instance does not exist or its box carries no migratable
// state (not a StatefulBox).
func (r *Runtime) ExportState(id string) (data []byte, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.instances[id]
	if inst == nil {
		return nil, false, nil
	}
	sb, is := inst.Box.(StatefulBox)
	if !is {
		return nil, false, nil
	}
	data, err = sb.ExportState()
	if err != nil {
		return nil, false, fmt.Errorf("middlebox: export %s state: %w", id, err)
	}
	return data, true, nil
}

// ImportState merges a previously exported snapshot into the named
// instance's box. It is an error to import into an unknown instance or
// one whose box is not a StatefulBox — the caller matched the wrong
// instance, and silently dropping the state would turn a migration bug
// into a cold start.
func (r *Runtime) ImportState(id string, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.instances[id]
	if inst == nil {
		return fmt.Errorf("%w: %q", ErrInstanceunknown, id)
	}
	sb, is := inst.Box.(StatefulBox)
	if !is {
		return fmt.Errorf("middlebox: %s (%s) carries no migratable state", id, inst.Spec.Type)
	}
	if err := sb.ImportState(data); err != nil {
		return fmt.Errorf("middlebox: import %s state: %w", id, err)
	}
	return nil
}
