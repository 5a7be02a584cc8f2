// Package billing implements the monetization side of PVNs (§3.3
// "Incentivizing access network providers"): tariffs with per-module
// prices, usage-based charges and free tiers; invoices generated from
// metered deployments; accounts; and dispute resolution driven by
// auditor evidence — observed violations translate into refunds.
package billing

import (
	"errors"
	"fmt"

	"pvn/internal/auditor"
)

// Errors.
var (
	ErrInsufficientFunds = errors.New("billing: insufficient funds")
	ErrUnknownAccount    = errors.New("billing: unknown account")
)

// Tariff prices a provider's PVN service.
type Tariff struct {
	// PerModuleMicro is the flat per-deployment price by middlebox
	// type, in microcredits.
	PerModuleMicro map[string]int64
	// PerMBMicro charges traffic through the PVN per megabyte.
	PerMBMicro int64
	// FreeBytes is the monthly zero-rated allowance (the ad-funded
	// free tier).
	FreeBytes int64
}

// Usage summarizes one deployment's consumption over a billing period.
type Usage struct {
	User string
	// ModuleTypes deployed (duplicates allowed: two instances bill
	// twice).
	ModuleTypes []string
	// Bytes of traffic carried through the PVN.
	Bytes int64
}

// Line is one invoice line item.
type Line struct {
	Description string
	AmountMicro int64
}

// Invoice bills one user for one period.
type Invoice struct {
	Provider string
	User     string
	Lines    []Line
	// TotalMicro is the sum of lines (post-adjustment).
	TotalMicro int64
	// RefundMicro records dispute adjustments included in the total.
	RefundMicro int64
}

// GenerateInvoice prices a usage record under a tariff.
func GenerateInvoice(provider string, tariff Tariff, u Usage) *Invoice {
	inv := &Invoice{Provider: provider, User: u.User}
	for _, typ := range u.ModuleTypes {
		price := tariff.PerModuleMicro[typ]
		inv.Lines = append(inv.Lines, Line{
			Description: fmt.Sprintf("module %s", typ),
			AmountMicro: price,
		})
	}
	billable := u.Bytes - tariff.FreeBytes
	if billable > 0 && tariff.PerMBMicro > 0 {
		amount := billable * tariff.PerMBMicro / (1 << 20)
		inv.Lines = append(inv.Lines, Line{
			Description: fmt.Sprintf("traffic %d bytes (%d free)", u.Bytes, tariff.FreeBytes),
			AmountMicro: amount,
		})
	}
	for _, l := range inv.Lines {
		inv.TotalMicro += l.AmountMicro
	}
	return inv
}

// RefundPolicy maps violation kinds to refund fractions of the invoice
// total. DefaultRefundPolicy refunds proportionally to severity.
type RefundPolicy map[auditor.ViolationKind]float64

// DefaultRefundPolicy: tampering with the deployed configuration voids
// the whole bill; data-plane misbehaviour refunds a share.
var DefaultRefundPolicy = RefundPolicy{
	auditor.ViolationConfigTampering: 1.0,
	auditor.ViolationContentMod:      0.5,
	auditor.ViolationDifferentiation: 0.3,
	auditor.ViolationPathInflation:   0.2,
	auditor.ViolationPrivacyExposure: 0.5,
}

// ApplyDispute adjusts an invoice with a refund backed by audit
// evidence. The refund is the largest applicable fraction (violations do
// not stack past 100%). It returns the refund amount.
func ApplyDispute(inv *Invoice, d *auditor.Dispute, policy RefundPolicy) int64 {
	if d == nil || len(d.Evidence) == 0 {
		return 0
	}
	if policy == nil {
		policy = DefaultRefundPolicy
	}
	var frac float64
	for _, v := range d.Evidence {
		if f := policy[v.Kind]; f > frac {
			frac = f
		}
	}
	if frac > 1 {
		frac = 1
	}
	gross := inv.TotalMicro + inv.RefundMicro // pre-refund total
	refund := int64(float64(gross) * frac)
	if refund > inv.TotalMicro {
		refund = inv.TotalMicro
	}
	if refund <= 0 {
		return 0
	}
	inv.Lines = append(inv.Lines, Line{
		Description: fmt.Sprintf("dispute refund (%d violations, %.0f%%)", len(d.Evidence), frac*100),
		AmountMicro: -refund,
	})
	inv.TotalMicro -= refund
	inv.RefundMicro += refund
	return refund
}

// Ledger tracks account balances in microcredits.
type Ledger struct {
	balances map[string]int64
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger { return &Ledger{balances: make(map[string]int64)} }

// Credit adds funds to an account (creating it if needed).
func (l *Ledger) Credit(account string, micro int64) {
	l.balances[account] += micro
}

// Balance returns an account's funds.
func (l *Ledger) Balance(account string) int64 { return l.balances[account] }

// Settle moves an invoice's total from the user to the provider. It
// fails without side effects when the user cannot cover it.
func (l *Ledger) Settle(inv *Invoice) error {
	if inv.TotalMicro <= 0 {
		return nil
	}
	if l.balances[inv.User] < inv.TotalMicro {
		return fmt.Errorf("%w: %s has %d, owes %d", ErrInsufficientFunds, inv.User, l.balances[inv.User], inv.TotalMicro)
	}
	l.balances[inv.User] -= inv.TotalMicro
	l.balances[inv.Provider] += inv.TotalMicro
	return nil
}
