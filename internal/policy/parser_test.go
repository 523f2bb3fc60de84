package policy

import (
	"errors"
	"strings"
	"testing"

	"github.com/amuse/smc/internal/event"
)

func TestParseObligation(t *testing.T) {
	src := `
# heart rate alarm policy
obligation hr-high for "hr-sensor" {
  on type = "reading" && kind = "heart-rate"
  when value > 180.5
  do publish(type = "actuate", target = "defib-1", action = "analyse", joules = 150),
     log("tachycardia"),
     disable("hr-low")
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Obligations) != 1 || len(f.Authorizations) != 0 {
		t.Fatalf("parsed %d/%d", len(f.Obligations), len(f.Authorizations))
	}
	o := f.Obligations[0]
	if o.name != "hr-high" || o.deviceType != "hr-sensor" {
		t.Errorf("header = %q for %q", o.name, o.deviceType)
	}
	if o.On.Len() != 2 {
		t.Errorf("on constraints = %d", o.On.Len())
	}
	if !o.On.Matches(event.NewTyped("reading").SetStr("kind", "heart-rate")) {
		t.Error("on-filter does not match intended event")
	}
	if o.when == nil || !o.when.Matches(event.New().SetFloat("value", 200)) {
		t.Error("when-filter wrong")
	}
	if o.when.Matches(event.New().SetFloat("value", 100)) {
		t.Error("when-filter matches low value")
	}
	if len(o.actions) != 3 {
		t.Fatalf("actions = %d", len(o.actions))
	}
	pub := o.actions[0]
	if pub.kind != actionPublish || len(pub.attrs) != 4 {
		t.Errorf("publish action = %+v", pub)
	}
	if pub.attrs[3].name != "joules" || !pub.attrs[3].value.Equal(event.Int(150)) {
		t.Errorf("joules attr = %+v", pub.attrs[3])
	}
	if o.actions[1].kind != actionLog || o.actions[1].message != "tachycardia" {
		t.Errorf("log action = %+v", o.actions[1])
	}
	if o.actions[2].kind != actionDisable || o.actions[2].message != "hr-low" {
		t.Errorf("disable action = %+v", o.actions[2])
	}
}

func TestParseAuthorization(t *testing.T) {
	src := `
authorization deny-sensor-actuation {
  effect deny
  subject "hr-sensor"
  action publish
  target type = "actuate"
}
authorization deny-all {
  effect deny
  subject *
  action *
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Authorizations) != 2 {
		t.Fatalf("auths = %d", len(f.Authorizations))
	}
	a := f.Authorizations[0]
	if a.name != "deny-sensor-actuation" || a.subject != "hr-sensor" || a.verb != verbPublish {
		t.Errorf("auth = %+v", a)
	}
	if a.target == nil || !a.target.Matches(event.NewTyped("actuate")) {
		t.Error("target filter wrong")
	}
	b := f.Authorizations[1]
	if b.name != "deny-all" || b.subject != "*" || b.verb != verbAny || b.target != nil {
		t.Errorf("auth = %+v", b)
	}
}

// TestParseRejectsAllowRule: under the constant allow default an allow
// rule would change no verdict, so the parser refuses it and says why.
func TestParseRejectsAllowRule(t *testing.T) {
	_, err := Parse(`authorization open { effect allow subject * action publish }`)
	if !errors.Is(err, errParse) || !strings.Contains(err.Error(), "the default is allow") {
		t.Fatalf("allow rule: err = %v, want a parse error naming the allow default", err)
	}
}

func TestParseOperatorsAndLiterals(t *testing.T) {
	src := `
obligation ops {
  on a != "x" && b < 1 && c <= 2 && d > 3 && e >= 4.5 && f prefix "p" && g suffix "s" && h contains "c" && i exists && j = true && k = false && l = -7
  do log("ok")
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	on := f.Obligations[0].On
	if on.Len() != 12 {
		t.Fatalf("constraints = %d", on.Len())
	}
	e := event.New().
		SetStr("a", "y").SetInt("b", 0).SetInt("c", 2).SetInt("d", 4).
		SetFloat("e", 4.5).SetStr("f", "px").SetStr("g", "xs").
		SetStr("h", "aca").SetInt("i", 0).Set("j", event.Bool(true)).
		Set("k", event.Bool(false)).SetInt("l", -7)
	if !on.Matches(e) {
		t.Error("combined filter does not match crafted event")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`oblgation x { }`,                              // bad keyword
		`obligation { on a = 1 do log("x") }`,          // missing name
		`obligation x { do log("x") }`,                 // missing on
		`obligation x { on a = 1 }`,                    // missing do
		`obligation x { on a = 1 do log(x) }`,          // log wants string
		`obligation x { on a = 1 do zap("x") }`,        // unknown action
		`obligation x { on a ~ 1 do log("x") }`,        // bad operator
		`obligation x { on a = do log("x") }`,          // missing literal
		`obligation x for hr { on a = 1 do log("x") }`, // for wants string
		`authorization a { effect maybe subject * action * }`,
		`authorization a { effect deny subject * action frobnicate }`,
		`authorization a { effect deny subject * action * bogus x }`,
		`authorization a { effect allow subject * action * }`, // allow is the default
		`authorization a { subject * action * }`,              // missing effect
		`obligation x { on a = 1 do publish() }`,              // empty publish
		`obligation x { on a = 1 do log("unterminated) }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted: %s", strings.TrimSpace(src))
		} else if !errors.Is(err, errParse) {
			t.Errorf("non-parse error for %q: %v", src, err)
		}
	}
}

func TestParseEmptyAndComments(t *testing.T) {
	f, err := Parse("# nothing but comments\n\n# more\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Obligations)+len(f.Authorizations) != 0 {
		t.Error("phantom policies")
	}
}

func TestParseMultiplePolicies(t *testing.T) {
	src := `
obligation one { on a = 1 do log("1") }
obligation two { on a = 2 do log("2") }
authorization three { effect deny subject "s" action subscribe }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Obligations) != 2 || len(f.Authorizations) != 1 {
		t.Errorf("parsed %d/%d", len(f.Obligations), len(f.Authorizations))
	}
}

func TestStringEscapes(t *testing.T) {
	f, err := Parse(`obligation e { on a = "l1\nl2\t\"q\"" do log("m") }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cs := f.Obligations[0].On.Constraints()
	want := "l1\nl2\t\"q\""
	if !cs[0].Value.Equal(event.Str(want)) {
		t.Errorf("escaped string = %s", cs[0].Value)
	}
}

func TestValidateDirect(t *testing.T) {
	o := &Obligation{name: "x", On: event.NewFilter(), actions: []action{{kind: actionLog}}}
	if err := o.validate(); err != nil {
		t.Errorf("valid obligation rejected: %v", err)
	}
	bad := &Obligation{On: event.NewFilter(), actions: []action{{kind: actionLog}}}
	if err := bad.validate(); err == nil {
		t.Error("nameless obligation accepted")
	}
	a := &Authorization{name: "a", subject: "*", verb: verbAny}
	if err := a.validate(); err != nil {
		t.Errorf("valid authorization rejected: %v", err)
	}
	if err := (&Authorization{name: "a", subject: "*"}).validate(); err == nil {
		t.Error("verbless authorization accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	if verbPublish.String() != "publish" || verbSubscribe.String() != "subscribe" ||
		verbAny.String() != "*" || authVerb(0).String() != "invalid" {
		t.Error("verb strings")
	}
}
