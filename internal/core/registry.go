package core

import (
	"fmt"
	"strings"

	"repro/internal/policy"
	"repro/internal/traffic"
)

// PolicyNames lists every name NewPolicy accepts: RFH, the three §III
// baselines and the EAD extension baseline.
func PolicyNames() []string {
	return []string{"rfh", "random", "owner", "request", "ead"}
}

// NewPolicy returns a fresh instance of the named replication policy
// ("" selects RFH). Policies may be stateful, so every simulation run
// and every live node needs its own. The baselines take their Table I
// parameters: request-oriented uses α = 0.2 and random keeps
// policy.DefaultRandomN copies.
func NewPolicy(name string) (policy.Policy, error) {
	switch name {
	case "rfh", "":
		return NewRFH(), nil
	case "random":
		return policy.NewRandom(), nil
	case "owner":
		return policy.NewOwnerOriented(), nil
	case "request":
		return policy.NewRequestOriented(traffic.DefaultThresholds().Alpha), nil
	case "ead":
		return policy.NewEAD(0), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
	}
}
