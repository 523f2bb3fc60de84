package sensor

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/amuse/smc/internal/event"
)

func TestReadingRoundTrip(t *testing.T) {
	err := quick.Check(func(kindRaw uint8, seq uint16, millis int64, value float64) bool {
		kind := Kind(kindRaw%6) + KindHeartRate
		if kind > KindGlucose {
			kind = KindHeartRate
		}
		if math.IsNaN(value) {
			value = 0
		}
		r := Reading{Kind: kind, Seq: seq, Millis: millis, Value: value}
		got, err := decodeReading(EncodeReading(r))
		return err == nil && got == r
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestReadingDecodeRejectsBadInput(t *testing.T) {
	r := Reading{Kind: KindHeartRate, Seq: 1, Millis: 2, Value: 3}
	buf := EncodeReading(r)
	if _, err := decodeReading(buf[:len(buf)-1]); err == nil {
		t.Error("short reading accepted")
	}
	if _, err := decodeReading(append(buf, 0)); err == nil {
		t.Error("long reading accepted")
	}
	bad := EncodeReading(r)
	bad[0] = 0
	if _, err := decodeReading(bad); err == nil {
		t.Error("zero kind accepted")
	}
	bad[0] = 200
	if _, err := decodeReading(bad); err == nil {
		t.Error("out-of-range kind accepted")
	}
}

func TestCommandRoundTrip(t *testing.T) {
	for _, op := range []byte{OpAnalyse, opShock, opInfuse, opBeep} {
		c := Command{Opcode: op, Arg: 42.5}
		got, err := DecodeCommand(encodeCommand(c))
		if err != nil || got != c {
			t.Errorf("op %d roundtrip: %+v %v", op, got, err)
		}
	}
	if _, err := DecodeCommand([]byte{1}); err == nil {
		t.Error("short command accepted")
	}
	bad := encodeCommand(Command{Opcode: opBeep})
	bad[0] = 0
	if _, err := DecodeCommand(bad); err == nil {
		t.Error("zero opcode accepted")
	}
}

func TestOpcodeActionMapping(t *testing.T) {
	for _, action := range []string{"analyse", "shock", "infuse", "beep"} {
		op, ok := opcodeForAction(action)
		if !ok {
			t.Fatalf("no opcode for %q", action)
		}
		back, ok := ActionForOpcode(op)
		if !ok || back != action {
			t.Errorf("roundtrip %q -> %d -> %q", action, op, back)
		}
	}
	if _, ok := opcodeForAction("explode"); ok {
		t.Error("unknown action mapped")
	}
	if _, ok := ActionForOpcode(0); ok {
		t.Error("zero opcode mapped")
	}
}

func TestKindStringsAndUnits(t *testing.T) {
	kinds := []Kind{KindHeartRate, KindSpO2, KindTemperature, KindBPSystolic, KindBPDiastolic, KindGlucose}
	seen := map[string]bool{}
	for _, k := range kinds {
		if k.String() == "invalid" || seen[k.String()] {
			t.Errorf("kind %d renders %q", k, k)
		}
		seen[k.String()] = true
		if k.unit() == "" {
			t.Errorf("kind %s has no unit", k)
		}
	}
	if kindInvalid.String() != "invalid" || kindInvalid.unit() != "" {
		t.Error("invalid kind rendering")
	}
}

func TestWaveformDeterminism(t *testing.T) {
	a := HeartRateWaveform(7)
	b := HeartRateWaveform(7)
	for i := 0; i < 500; i++ {
		if av, bv := a.next(), b.next(); av != bv {
			t.Fatalf("sample %d diverges: %v vs %v", i, av, bv)
		}
	}
	c := HeartRateWaveform(8)
	same := true
	a2 := HeartRateWaveform(7)
	for i := 0; i < 50; i++ {
		if a2.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produce identical streams")
	}
}

func TestWaveformStaysInPhysiologicalRange(t *testing.T) {
	cases := []struct {
		kind     Kind
		min, max float64
	}{
		{KindHeartRate, 30, 230},
		{KindSpO2, 70, 100},
		{KindTemperature, 33, 43},
		{KindBPSystolic, 60, 260},
		{KindBPDiastolic, 40, 160},
		{KindGlucose, 1.5, 30},
	}
	for _, c := range cases {
		w := WaveformFor(c.kind, 3)
		for i := 0; i < 2000; i++ {
			v := w.next()
			if v < c.min || v > c.max {
				t.Fatalf("%s sample %d = %v outside [%v, %v]", c.kind, i, v, c.min, c.max)
			}
		}
	}
}

func TestWaveformEpisodeShiftsBaseline(t *testing.T) {
	w := newWaveform(70, 1, WithEpisode(10, 5, 100))
	var before, during float64
	for i := 0; i < 10; i++ {
		before += w.next()
	}
	for i := 0; i < 5; i++ {
		during += w.next()
	}
	if during/5 < before/10+50 {
		t.Errorf("episode not visible: before avg %.1f, during avg %.1f", before/10, during/5)
	}
	if w.tick != 15 {
		t.Errorf("tick = %d", w.tick)
	}
}

func TestSensorProxyDeviceTranslateIn(t *testing.T) {
	d := NewSensorProxyDevice(DeviceTypeHeartRate)
	if d.DeviceType() != DeviceTypeHeartRate {
		t.Errorf("type = %s", d.DeviceType())
	}
	r := Reading{Kind: KindHeartRate, Seq: 3, Millis: 1718000000123, Value: 88.5}
	events, err := d.TranslateIn(EncodeReading(r))
	if err != nil || len(events) != 1 {
		t.Fatalf("translate: %v %d", err, len(events))
	}
	e := events[0]
	if e.Type() != TypeReading {
		t.Errorf("type = %s", e.Type())
	}
	checks := map[string]event.Value{
		AttrKind:   event.Str("heart-rate"),
		AttrValue:  event.Float(88.5),
		attrUnit:   event.Str("bpm"),
		AttrSeq:    event.Int(3),
		attrMillis: event.Int(1718000000123),
	}
	for name, want := range checks {
		if v, ok := e.Get(name); !ok || !v.Equal(want) {
			t.Errorf("%s = %s, want %s", name, v, want)
		}
	}
	if _, err := d.TranslateIn([]byte("junk")); err == nil {
		t.Error("junk translated")
	}
	if _, ok, _ := d.TranslateOut(event.New()); ok {
		t.Error("sensor translated outbound")
	}
	if d.InitialSubscriptions() != nil {
		t.Error("sensor has initial subscriptions")
	}
}

func TestActuatorProxyDevice(t *testing.T) {
	d := NewActuatorProxyDevice(DeviceTypeDefib, "defib-1")
	subs := d.InitialSubscriptions()
	if len(subs) != 1 {
		t.Fatalf("subs = %d", len(subs))
	}
	mine := event.NewTyped(TypeActuate).SetStr(AttrTarget, "defib-1").SetStr(AttrAction, "shock")
	other := event.NewTyped(TypeActuate).SetStr(AttrTarget, "defib-2").SetStr(AttrAction, "shock")
	if !subs[0].Matches(mine) || subs[0].Matches(other) {
		t.Error("initial subscription targets wrong events")
	}

	data, ok, err := d.TranslateOut(mine.Clone().SetFloat(attrArg, 150))
	if err != nil || !ok {
		t.Fatalf("translate out: %v %v", ok, err)
	}
	cmd, err := DecodeCommand(data)
	if err != nil || cmd.Opcode != opShock || cmd.Arg != 150 {
		t.Errorf("cmd = %+v %v", cmd, err)
	}

	// Int args work too.
	data, ok, err = d.TranslateOut(mine.Clone().SetInt(attrArg, 200))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if cmd, _ := DecodeCommand(data); cmd.Arg != 200 {
		t.Errorf("int arg = %v", cmd.Arg)
	}

	// Non-actuate events pass through untranslated.
	if _, ok, err := d.TranslateOut(event.NewTyped("other")); ok || err != nil {
		t.Error("non-actuate translated")
	}
	// Missing/unknown actions error.
	if _, _, err := d.TranslateOut(event.NewTyped(TypeActuate)); err == nil {
		t.Error("actionless actuate accepted")
	}
	bad := event.NewTyped(TypeActuate).SetStr(AttrAction, "explode")
	if _, _, err := d.TranslateOut(bad); err == nil {
		t.Error("unknown action accepted")
	}
	// Inbound data from an actuator is a protocol error.
	if _, err := d.TranslateIn([]byte{1}); err == nil {
		t.Error("actuator inbound accepted")
	}
}

// chanPublisher collects raw publishes.
type chanPublisher struct {
	mu   sync.Mutex
	data [][]byte
	fail error
}

func (c *chanPublisher) PublishRaw(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return c.fail
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.data = append(c.data, cp)
	return nil
}

func (c *chanPublisher) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.data)
}

func TestSimEmitsReadings(t *testing.T) {
	pub := &chanPublisher{}
	fixed := time.UnixMilli(1718000000000)
	s := NewSim(KindTemperature, TemperatureWaveform(1), 10*time.Millisecond, pub,
		withClock(func() time.Time { return fixed }))

	for i := 0; i < 3; i++ {
		if err := s.EmitOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Sent() != 3 || s.Failures() != 0 {
		t.Errorf("sent/failures = %d/%d", s.Sent(), s.Failures())
	}
	if pub.count() != 3 {
		t.Fatalf("published %d", pub.count())
	}
	for i, buf := range pub.data {
		r, err := decodeReading(buf)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != KindTemperature || r.Seq != uint16(i+1) || r.Millis != fixed.UnixMilli() {
			t.Errorf("reading %d = %+v", i, r)
		}
	}
}

func TestSimLoopAndStop(t *testing.T) {
	pub := &chanPublisher{}
	s := NewSim(KindHeartRate, HeartRateWaveform(2), 5*time.Millisecond, pub)
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && pub.count() < 3 {
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()
	if pub.count() < 3 {
		t.Fatalf("only %d readings", pub.count())
	}
	n := pub.count()
	time.Sleep(50 * time.Millisecond)
	if pub.count() != n {
		t.Error("sim kept publishing after Stop")
	}
}

func TestActuatorSimRecordsCommands(t *testing.T) {
	a := NewActuatorSim("defib-1")
	data := make(chan []byte, 4)
	a.Start(data)
	data <- encodeCommand(Command{Opcode: OpAnalyse, Arg: 0})
	data <- encodeCommand(Command{Opcode: opShock, Arg: 120})
	data <- []byte("garbage")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.Actions()) == 2 && a.decodeErrors() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.Stop()
	acts := a.Actions()
	if len(acts) != 2 || acts[0].Opcode != OpAnalyse || acts[1].Opcode != opShock {
		t.Errorf("actions = %+v", acts)
	}
	if a.decodeErrors() != 1 {
		t.Errorf("decode errors = %d", a.decodeErrors())
	}
}

// decodeErrors reports undecodable commands received.
func (a *ActuatorSim) decodeErrors() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.decodeErrs
}

// withClock overrides the device clock (tests).
func withClock(now func() time.Time) SimOption {
	return func(s *Sim) { s.clock = now }
}
