package openflow

import (
	"strings"
	"testing"

	"pvn/internal/packet"
)

func TestActionStrings(t *testing.T) {
	cases := []struct {
		a    Action
		want string
	}{
		{Output(3), "output:3"},
		{Drop(), "drop"},
		{ToController(), "controller"},
		{ToMiddlebox("alice/secure"), "mbx:alice/secure"},
		{Metered("m1"), "meter:m1"},
		{Tunnel("cloud"), "tunnel:cloud"},
		{Action{Type: ActionType(200)}, "action(200)"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictDrop: "drop", VerdictOutput: "output",
		VerdictController: "controller", VerdictTunnel: "tunnel",
		Verdict(99): "verdict(99)",
	} {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q", v, v.String())
		}
	}
}

func TestFlowEntryStringAndEntries(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 9, Match: Match{Fields: FieldDstPort, DstPort: 80},
		Actions: []Action{Output(1)}}, 0)
	tbl.Install(&FlowEntry{Priority: 5, Actions: []Action{Drop()}}, 0)
	entries := tbl.Entries()
	if len(entries) != 2 || entries[0].Priority != 9 {
		t.Fatalf("entries %v", entries)
	}
	s := entries[0].String()
	for _, want := range []string{"prio=9", "dport=80", "output:1"} {
		if !strings.Contains(s, want) {
			t.Errorf("entry string %q missing %q", s, want)
		}
	}
	// Mutating the returned slice must not corrupt the table.
	entries[0] = nil
	if tbl.Entries()[0] == nil {
		t.Fatal("Entries returned the live slice")
	}
}

func TestSwitchString(t *testing.T) {
	sw := NewSwitch("s1", nil)
	if s := sw.Table.Entries(); len(s) != 0 {
		t.Fatal("fresh table non-empty")
	}
	if got := VerdictOutput.String(); got == "" {
		t.Fatal("empty verdict string")
	}
}

func TestEffBits(t *testing.T) {
	m := &Match{Fields: FieldSrcIP, SrcIP: packet.MustParseIPv4("10.0.0.0"), SrcBits: 8}
	if s := m.String(); !strings.Contains(s, "/8") {
		t.Fatalf("string %q", s)
	}
	m.SrcBits = 0
	if s := m.String(); !strings.Contains(s, "/32") {
		t.Fatalf("string %q", s)
	}
	m.SrcBits = 40
	if s := m.String(); !strings.Contains(s, "/32") {
		t.Fatalf("string %q", s)
	}
}
