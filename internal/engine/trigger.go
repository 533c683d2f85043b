package engine

import (
	"fmt"

	"opdelta/internal/catalog"
	"opdelta/internal/txn"
)

// TriggerOp identifies the statement kind that fired a trigger.
type TriggerOp uint8

// Trigger event kinds.
const (
	TrigInsert TriggerOp = iota + 1
	TrigDelete
	TrigUpdate
)

// String names the trigger op.
func (o TriggerOp) String() string {
	switch o {
	case TrigInsert:
		return "INSERT"
	case TrigDelete:
		return "DELETE"
	case TrigUpdate:
		return "UPDATE"
	default:
		return "?"
	}
}

// TriggerEvent is delivered to row-level triggers once per affected
// row, inside the firing transaction — exactly the execution model the
// paper measures ("triggers execute in the same transaction context as
// the triggering event").
type TriggerEvent struct {
	Op     TriggerOp
	Table  string
	Txn    txn.ID
	Before catalog.Tuple // DELETE and UPDATE
	After  catalog.Tuple // INSERT and UPDATE
}

// TriggerFunc is a row-level trigger body. Errors abort the firing
// statement and, because the trigger runs in the user transaction, the
// user transaction with it — the paper's "if a trigger fails it also
// aborts the user transaction".
type TriggerFunc func(tx *Tx, ev TriggerEvent) error

// Trigger is a named row-level trigger on one table.
type Trigger struct {
	Name     string
	OnInsert bool
	OnDelete bool
	OnUpdate bool
	Fn       TriggerFunc
}

// CreateTrigger installs a row-level trigger on table.
func (db *DB) CreateTrigger(table string, trig Trigger) error {
	if trig.Name == "" || trig.Fn == nil {
		return fmt.Errorf("engine: trigger needs a name and a body")
	}
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.trigMu.Lock()
	defer t.trigMu.Unlock()
	for _, existing := range t.triggers {
		if existing.Name == trig.Name {
			return fmt.Errorf("engine: trigger %q already exists on %s", trig.Name, table)
		}
	}
	cp := trig
	t.triggers = append(t.triggers, &cp)
	return nil
}

// DropTrigger removes the named trigger from table.
func (db *DB) DropTrigger(table, name string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.trigMu.Lock()
	defer t.trigMu.Unlock()
	for i, trig := range t.triggers {
		if trig.Name == name {
			t.triggers = append(t.triggers[:i], t.triggers[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("engine: no trigger %q on %s", name, table)
}

// StatementDelta is one DML statement's transition tables: every row
// the statement changed, in the order it changed them. An UPDATE pairs
// Before[i] with After[i]; an INSERT carries only After, a DELETE only
// Before.
type StatementDelta struct {
	Op     TriggerOp
	Table  string
	Before []catalog.Tuple
	After  []catalog.Tuple
}

// StatementHookFunc is a statement-level trigger body. It runs once per
// statement that changed at least one row, inside the firing
// transaction, after the statement's last row has been written and its
// row triggers have fired. The delta and its tuples are shared with the
// executor and the other hooks: read-only. An error fails the statement,
// and the caller aborts the transaction as for a row trigger.
type StatementHookFunc func(tx *Tx, d *StatementDelta) error

// StatementHook is a named statement-level trigger on one table.
type StatementHook struct {
	Name string
	Fn   StatementHookFunc
}

// CreateStatementHook installs a statement-level trigger on table.
// Transition tables are collected only for tables that have one.
func (db *DB) CreateStatementHook(table string, hook StatementHook) error {
	if hook.Name == "" || hook.Fn == nil {
		return fmt.Errorf("engine: statement hook needs a name and a body")
	}
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.trigMu.Lock()
	defer t.trigMu.Unlock()
	for _, existing := range t.hooks {
		if existing.Name == hook.Name {
			return fmt.Errorf("engine: statement hook %q already exists on %s", hook.Name, table)
		}
	}
	cp := hook
	t.hooks = append(t.hooks, &cp)
	return nil
}

// DropStatementHook removes the named statement hook from table.
func (db *DB) DropStatementHook(table, name string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.trigMu.Lock()
	defer t.trigMu.Unlock()
	for i, h := range t.hooks {
		if h.Name == name {
			// Copy: a statement in flight may hold the old slice.
			t.hooks = append(append([]*StatementHook(nil), t.hooks[:i]...), t.hooks[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("engine: no statement hook %q on %s", name, table)
}

// newDelta starts collecting a statement's transition tables, sized for
// n rows. It returns nil — collect nothing — when t has no statement
// hook.
func (t *Table) newDelta(op TriggerOp, n int) *StatementDelta {
	t.trigMu.RLock()
	hooked := len(t.hooks) > 0
	t.trigMu.RUnlock()
	if !hooked {
		return nil
	}
	d := &StatementDelta{Op: op, Table: t.Name}
	if op != TrigInsert {
		d.Before = make([]catalog.Tuple, 0, n)
	}
	if op != TrigDelete {
		d.After = make([]catalog.Tuple, 0, n)
	}
	return d
}

// add records one changed row; a nil delta ignores it.
func (d *StatementDelta) add(before, after catalog.Tuple) {
	if d == nil {
		return
	}
	if before != nil {
		d.Before = append(d.Before, before)
	}
	if after != nil {
		d.After = append(d.After, after)
	}
}

// fireStatementHooks delivers d to every statement hook on t. A nil or
// empty delta fires nothing.
func (tx *Tx) fireStatementHooks(t *Table, d *StatementDelta) error {
	if d == nil || len(d.Before)+len(d.After) == 0 {
		return nil
	}
	t.trigMu.RLock()
	hooks := t.hooks
	t.trigMu.RUnlock()
	if tx.depth >= maxTriggerDepth {
		return fmt.Errorf("engine: trigger recursion depth %d exceeded on %s", maxTriggerDepth, t.Name)
	}
	tx.depth++
	defer func() { tx.depth-- }()
	for _, h := range hooks {
		if err := h.Fn(tx, d); err != nil {
			return fmt.Errorf("engine: statement hook %q: %w", h.Name, err)
		}
	}
	return nil
}

// fireTriggers delivers ev to every matching trigger on t.
func (tx *Tx) fireTriggers(t *Table, ev TriggerEvent) error {
	t.trigMu.RLock()
	trigs := t.triggers
	t.trigMu.RUnlock()
	if len(trigs) == 0 {
		return nil
	}
	if tx.depth >= maxTriggerDepth {
		return fmt.Errorf("engine: trigger recursion depth %d exceeded on %s", maxTriggerDepth, t.Name)
	}
	tx.depth++
	defer func() { tx.depth-- }()
	for _, trig := range trigs {
		fire := (ev.Op == TrigInsert && trig.OnInsert) ||
			(ev.Op == TrigDelete && trig.OnDelete) ||
			(ev.Op == TrigUpdate && trig.OnUpdate)
		if !fire {
			continue
		}
		if err := trig.Fn(tx, ev); err != nil {
			return fmt.Errorf("engine: trigger %q: %w", trig.Name, err)
		}
	}
	return nil
}
