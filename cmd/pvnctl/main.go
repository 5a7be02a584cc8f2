// Command pvnctl validates, inspects and compiles PVNC configuration
// files — the user-facing tooling the paper's "high-level tools that
// compile user-readable configurations into low-level SDN code" (§3.1).
//
// Usage:
//
//	pvnctl validate <file>   # syntax, invariants, box types and config keys
//	pvnctl compile <file>    # show the lowered flow rules and plans
//	pvnctl estimate <file>   # resource request quoted during discovery
//	pvnctl format <file>     # canonical form (stable hash input)
//	pvnctl hash <file>       # configuration hash used in attestations
package main

import (
	"fmt"
	"io"
	"os"

	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/pvnc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "pvnctl: %v\n", err)
		os.Exit(1)
	}
}

// run executes one pvnctl command; separated from main for testability.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: pvnctl {validate|compile|estimate|format|hash} <file>")
	}
	cmd, path := args[0], args[1]
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	cfg, err := pvnc.Parse(string(data))
	if err != nil {
		return err
	}

	switch cmd {
	case "validate":
		errs := append(cfg.Validate(), checkBoxes(cfg)...)
		if len(errs) == 0 {
			fmt.Fprintf(stdout, "%s: OK (%d middleboxes, %d chains, %d policies)\n",
				cfg.Name, len(cfg.Middleboxes), len(cfg.Chains), len(cfg.Policies))
			return nil
		}
		for _, e := range errs {
			fmt.Fprintf(stderr, "violation: %v\n", e)
		}
		return fmt.Errorf("%d invariant violations", len(errs))

	case "compile":
		compiled, err := pvnc.Compile(cfg, pvnc.CompileOptions{Cookie: 1, DevicePort: 0, UpstreamPort: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# %s (owner %s, hash %.16s...)\n", cfg.Name, compiled.Owner, compiled.Hash)
		fmt.Fprintf(stdout, "\n# middlebox plan\n")
		for _, m := range compiled.Middleboxes {
			fmt.Fprintf(stdout, "instantiate %-12s type=%s config=%v\n", m.LocalName, m.Type, m.Config)
		}
		fmt.Fprintf(stdout, "\n# chains\n")
		for _, c := range compiled.Chains {
			fmt.Fprintf(stdout, "chain %-12s members=%v\n", c.Name, c.Members)
		}
		fmt.Fprintf(stdout, "\n# meters\n")
		for _, m := range compiled.Meters {
			fmt.Fprintf(stdout, "meter %-20s rate=%.0f bps\n", m.ID, m.RateBps)
		}
		fmt.Fprintf(stdout, "\n# flow rules (match order)\n")
		for _, r := range compiled.Rules {
			fmt.Fprintf(stdout, "prio=%-4d %-50s -> %v\n", r.Priority, r.Match.String(), r.Actions)
		}
		return nil

	case "estimate":
		e := cfg.Estimate()
		fmt.Fprintf(stdout, "middleboxes: %d\nchains:      %d\npolicies:    %d\nflow rules:  %d\nmemory:      %.1f MB\n",
			e.NumMiddleboxes, e.NumChains, e.NumPolicies, e.NumFlowRules, float64(e.MemoryBytes)/(1<<20))
		return nil

	case "format":
		fmt.Fprint(stdout, cfg.Format())
		return nil

	case "hash":
		fmt.Fprintln(stdout, cfg.Hash())
		return nil
	}
	return fmt.Errorf("unknown command %q (want validate|compile|estimate|format|hash)", cmd)
}

// checkBoxes holds every middlebox line to the built-in registry a host
// boots boxes from: a type it does not register, or a config key the
// type does not declare, fails the deploy. Each error reads as the
// host's NACK reason does.
func checkBoxes(cfg *pvnc.PVNC) []error {
	rt := middlebox.NewRuntime(nil)
	mbx.RegisterBuiltins(rt, mbx.Deps{})
	var errs []error
	for _, m := range cfg.Middleboxes {
		if err := rt.CheckConfig(m.Type, m.Config); err != nil {
			errs = append(errs, fmt.Errorf("instantiate %s: %w", m.LocalName, err))
		}
	}
	return errs
}
