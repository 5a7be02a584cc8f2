package openflow

import "fmt"

// ActionType discriminates Action variants.
type ActionType uint8

// Action kinds.
const (
	ActionTypeOutput ActionType = iota + 1
	ActionTypeDrop
	ActionTypeController
	ActionTypeMiddlebox
	ActionTypeMeter
	ActionTypeTunnel
)

// Action is one step in a flow entry's action list. Actions execute in
// order; Output/Drop/Controller/Tunnel terminate processing.
type Action struct {
	Type ActionType

	// Port for Output.
	Port uint16
	// Chain names the middlebox chain for Middlebox actions.
	Chain string
	// MeterID names the meter for Meter actions.
	MeterID string
	// Tunnel names the tunnel endpoint for Tunnel actions.
	Tunnel string
}

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a.Type {
	case ActionTypeOutput:
		return fmt.Sprintf("output:%d", a.Port)
	case ActionTypeDrop:
		return "drop"
	case ActionTypeController:
		return "controller"
	case ActionTypeMiddlebox:
		return "mbx:" + a.Chain
	case ActionTypeMeter:
		return "meter:" + a.MeterID
	case ActionTypeTunnel:
		return "tunnel:" + a.Tunnel
	}
	return fmt.Sprintf("action(%d)", a.Type)
}

// Convenience constructors keep rule-building code readable.

// Output forwards out the given switch port.
func Output(port uint16) Action { return Action{Type: ActionTypeOutput, Port: port} }

// Drop discards the packet.
func Drop() Action { return Action{Type: ActionTypeDrop} }

// ToController punts the packet to the controller (packet-in).
func ToController() Action { return Action{Type: ActionTypeController} }

// ToMiddlebox sends the packet through the named middlebox chain before
// processing continues with the next action.
func ToMiddlebox(chain string) Action { return Action{Type: ActionTypeMiddlebox, Chain: chain} }

// Metered applies the named rate meter (shaping/policing).
func Metered(id string) Action { return Action{Type: ActionTypeMeter, MeterID: id} }

// Tunnel encapsulates the packet toward the named tunnel endpoint.
func Tunnel(name string) Action { return Action{Type: ActionTypeTunnel, Tunnel: name} }
