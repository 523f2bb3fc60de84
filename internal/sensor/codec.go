// Package sensor provides the synthetic body-area devices the
// reproduction uses in place of physical medical sensors: deterministic
// waveform generators for heart rate, blood pressure, SpO2 and body
// temperature; actuator models (defibrillator, insulin pump); the
// compact native encodings such devices emit; and the concrete proxy
// device types that translate those encodings into fully fledged
// events (§III-B: "a temperature sensor may periodically send a series
// of bytes representing a temperature reading, which the proxy converts
// into an object representing an event").
package sensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Kind identifies a physiological measurement.
type Kind byte

// Sensor kinds with their conventional units.
const (
	kindInvalid     Kind = iota
	KindHeartRate        // beats per minute
	KindSpO2             // percent saturation
	KindTemperature      // degrees Celsius
	KindBPSystolic       // mmHg
	KindBPDiastolic      // mmHg
	KindGlucose          // mmol/L
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindHeartRate:
		return "heart-rate"
	case KindSpO2:
		return "spo2"
	case KindTemperature:
		return "temperature"
	case KindBPSystolic:
		return "bp-systolic"
	case KindBPDiastolic:
		return "bp-diastolic"
	case KindGlucose:
		return "glucose"
	default:
		return "invalid"
	}
}

// unit returns the measurement unit for the kind.
func (k Kind) unit() string {
	switch k {
	case KindHeartRate:
		return "bpm"
	case KindSpO2:
		return "%"
	case KindTemperature:
		return "degC"
	case KindBPSystolic, KindBPDiastolic:
		return "mmHg"
	case KindGlucose:
		return "mmol/L"
	default:
		return ""
	}
}

// Reading is one native sensor sample.
type Reading struct {
	Kind   Kind
	Seq    uint16
	Millis int64 // device clock, Unix milliseconds
	Value  float64
}

// readingLen is the encoded reading size: kind(1) seq(2) millis(8)
// value(8).
const readingLen = 1 + 2 + 8 + 8

// errBadReading reports an undecodable native sample.
var errBadReading = errors.New("sensor: bad reading encoding")

// EncodeReading produces the device-native byte encoding.
func EncodeReading(r Reading) []byte {
	buf := make([]byte, readingLen)
	buf[0] = byte(r.Kind)
	binary.BigEndian.PutUint16(buf[1:3], r.Seq)
	binary.BigEndian.PutUint64(buf[3:11], uint64(r.Millis))
	binary.BigEndian.PutUint64(buf[11:19], math.Float64bits(r.Value))
	return buf
}

// decodeReading parses the device-native byte encoding.
func decodeReading(buf []byte) (Reading, error) {
	if len(buf) != readingLen {
		return Reading{}, fmt.Errorf("%w: %d bytes", errBadReading, len(buf))
	}
	r := Reading{
		Kind:   Kind(buf[0]),
		Seq:    binary.BigEndian.Uint16(buf[1:3]),
		Millis: int64(binary.BigEndian.Uint64(buf[3:11])),
		Value:  math.Float64frombits(binary.BigEndian.Uint64(buf[11:19])),
	}
	if r.Kind == kindInvalid || r.Kind > KindGlucose {
		return Reading{}, fmt.Errorf("%w: kind %d", errBadReading, buf[0])
	}
	return r, nil
}

// Command is one native actuator instruction.
type Command struct {
	Opcode byte
	arg    float64
}

// Actuator opcodes.
const (
	// OpAnalyse asks a defibrillator to run rhythm analysis.
	OpAnalyse byte = iota + 1
	// opShock asks a defibrillator to deliver a shock (arg: joules).
	opShock
	// opInfuse asks an infusion pump to deliver a dose (arg: units).
	opInfuse
	// opBeep asks a bedside unit to sound an alert (arg: severity).
	opBeep
)

// commandLen is the encoded command size: opcode(1) arg(8).
const commandLen = 1 + 8

// errBadCommand reports an undecodable native command.
var errBadCommand = errors.New("sensor: bad command encoding")

// encodeCommand produces the actuator-native byte encoding.
func encodeCommand(c Command) []byte {
	buf := make([]byte, commandLen)
	buf[0] = c.Opcode
	binary.BigEndian.PutUint64(buf[1:9], math.Float64bits(c.arg))
	return buf
}

// DecodeCommand parses the actuator-native byte encoding.
func DecodeCommand(buf []byte) (Command, error) {
	if len(buf) != commandLen {
		return Command{}, fmt.Errorf("%w: %d bytes", errBadCommand, len(buf))
	}
	c := Command{
		Opcode: buf[0],
		arg:    math.Float64frombits(binary.BigEndian.Uint64(buf[1:9])),
	}
	if c.Opcode == 0 || c.Opcode > opBeep {
		return Command{}, fmt.Errorf("%w: opcode %d", errBadCommand, buf[0])
	}
	return c, nil
}

// opcodeForAction maps an action name carried in "actuate" events to a
// native opcode.
func opcodeForAction(action string) (byte, bool) {
	switch action {
	case "analyse":
		return OpAnalyse, true
	case "shock":
		return opShock, true
	case "infuse":
		return opInfuse, true
	case "beep":
		return opBeep, true
	default:
		return 0, false
	}
}

// ActionForOpcode is the inverse of opcodeForAction.
func ActionForOpcode(op byte) (string, bool) {
	switch op {
	case OpAnalyse:
		return "analyse", true
	case opShock:
		return "shock", true
	case opInfuse:
		return "infuse", true
	case opBeep:
		return "beep", true
	default:
		return "", false
	}
}
