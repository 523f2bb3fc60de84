package policy

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParseNeverPanics feeds the parser random token soup and mutated
// valid programs; it must always return (result, error), never panic.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tokens := []string{
		"obligation", "authorization", "on", "when", "do", "for",
		"effect", "subject", "action", "target", "allow", "deny",
		"publish", "log", "enable", "disable", "exists",
		"{", "}", "(", ")", ",", "=", "!=", "<", "<=", ">", ">=", "&&",
		`"str"`, "name", "42", "3.5", "-7", "true", "false", "*", "#c\n",
	}
	for i := 0; i < 3000; i++ {
		n := rng.Intn(30)
		var sb strings.Builder
		for k := 0; k < n; k++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteByte(' ')
		}
		_, _ = Parse(sb.String())
	}
}

// TestParseMutatedValidProgram flips bytes in a valid program; the
// parser must reject or accept without panicking, and accepted
// programs must validate.
func TestParseMutatedValidProgram(t *testing.T) {
	valid := `
obligation hr-high for "hr-sensor" {
  on type = "reading" && kind = "heart-rate"
  when value > 180
  do publish(type = "alarm", severity = 3), log("hr high")
}
authorization a { effect deny subject "s" action publish target type = "actuate" }
`
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		b := []byte(valid)
		for flips := 0; flips < 1+rng.Intn(3); flips++ {
			b[rng.Intn(len(b))] = byte(32 + rng.Intn(95))
		}
		f, err := Parse(string(b))
		if err != nil {
			continue
		}
		for _, o := range f.Obligations {
			if verr := o.validate(); verr != nil {
				t.Fatalf("accepted obligation fails validation: %v\nsource: %s", verr, b)
			}
		}
		for _, a := range f.Authorizations {
			if verr := a.validate(); verr != nil {
				t.Fatalf("accepted authorization fails validation: %v", verr)
			}
		}
	}
}

// TestParseDeepNestingBounded guards against pathological inputs.
func TestParseDeepNestingBounded(t *testing.T) {
	long := "obligation x { on " + strings.Repeat(`a = 1 && `, 500) + `a = 1 do log("m") }`
	if _, err := Parse(long); err == nil {
		// 501 constraints exceeds MaxAttrs; Validate must reject.
		t.Error("oversized filter accepted")
	}
	// A big but legal program parses fine.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("obligation p")
		sb.WriteString(strings.Repeat("x", i%5+1))
		sb.WriteString(string(rune('a' + i%26)))
		sb.WriteString(string(rune('a' + (i/26)%26)))
		sb.WriteString(` { on a = 1 do log("m") }` + "\n")
	}
	f, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("large program rejected: %v", err)
	}
	if len(f.Obligations) != 200 {
		t.Errorf("parsed %d obligations", len(f.Obligations))
	}
}
