package openflow

import "time"

// FlowModCommand selects FlowMod behaviour.
type FlowModCommand string

// FlowMod commands.
const (
	FlowAdd          FlowModCommand = "add"
	FlowDeleteCookie FlowModCommand = "delete-cookie"
)

// FlowMod installs or removes flow entries.
type FlowMod struct {
	Command     FlowModCommand `json:"command"`
	Priority    int            `json:"priority,omitempty"`
	Match       Match          `json:"match,omitempty"`
	Actions     []Action       `json:"actions,omitempty"`
	Cookie      uint64         `json:"cookie,omitempty"`
	IdleTimeout time.Duration  `json:"idle_timeout,omitempty"`
	HardTimeout time.Duration  `json:"hard_timeout,omitempty"`
}

// Entry returns a fresh entry for the rule a FlowAdd describes. A
// deployment's mods go into a table together: collect their entries and
// hand them to FlowTable.InstallAll.
func (fm *FlowMod) Entry() *FlowEntry {
	return &FlowEntry{
		Priority:    fm.Priority,
		Match:       fm.Match,
		Actions:     fm.Actions,
		Cookie:      fm.Cookie,
		IdleTimeout: fm.IdleTimeout,
		HardTimeout: fm.HardTimeout,
	}
}

// Apply executes the mod against a table at the given simulated time. It
// returns how many entries were affected.
func (fm *FlowMod) Apply(t *FlowTable, now time.Duration) int {
	switch fm.Command {
	case FlowAdd:
		t.Install(fm.Entry(), now)
		return 1
	case FlowDeleteCookie:
		return t.RemoveByCookie(fm.Cookie)
	}
	return 0
}
