package sensor

import (
	"fmt"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/proxy"
)

// Event attribute names used by translated sensor traffic.
const (
	AttrKind   = "kind"
	AttrValue  = "value"
	attrUnit   = "unit"
	AttrSeq    = "reading-seq"
	attrMillis = "device-millis"
	AttrTarget = "target"
	AttrAction = "action"
	attrArg    = "arg"
)

// Event classes.
const (
	TypeReading = "reading"
	TypeActuate = "actuate"
)

// Device type names used in discovery and the bootstrap registry.
const (
	DeviceTypeHeartRate   = "hr-sensor"
	DeviceTypeSpO2        = "spo2-sensor"
	DeviceTypeTemperature = "temp-sensor"
	DeviceTypeBP          = "bp-sensor"
	DeviceTypeGlucose     = "glucose-sensor"
	DeviceTypeDefib       = "defibrillator"
	DeviceTypePump        = "infusion-pump"
	DeviceTypeBedside     = "bedside-unit"
)

// SensorProxyDevice is the "complex proxy for a simple sensor"
// (§III-B): the device sends compact native readings; the proxy
// translates each into a fully fledged "reading" event. Outbound
// events are not translated — simple sensors receive nothing.
type SensorProxyDevice struct {
	deviceType string
}

var _ proxy.Device = (*SensorProxyDevice)(nil)

// NewSensorProxyDevice builds the translator for a sensor device type.
func NewSensorProxyDevice(deviceType string) *SensorProxyDevice {
	return &SensorProxyDevice{deviceType: deviceType}
}

// DeviceType implements proxy.Device.
func (d *SensorProxyDevice) DeviceType() string { return d.deviceType }

// TranslateIn implements proxy.Device: native reading bytes → event.
func (d *SensorProxyDevice) TranslateIn(data []byte) ([]*event.Event, error) {
	r, err := decodeReading(data)
	if err != nil {
		return nil, err
	}
	e := readingEvent(d.deviceType, r)
	return []*event.Event{e}, nil
}

// TranslateOut implements proxy.Device: sensors take no commands.
func (d *SensorProxyDevice) TranslateOut(*event.Event) ([]byte, bool, error) {
	return nil, false, nil
}

// InitialSubscriptions implements proxy.Device: sensors subscribe to
// nothing.
func (d *SensorProxyDevice) InitialSubscriptions() []*event.Filter { return nil }

// readingEvent builds the bus event for a native reading.
func readingEvent(deviceType string, r Reading) *event.Event {
	e := event.NewTyped(TypeReading).
		Set(event.AttrDeviceType, event.Str(deviceType)).
		SetStr(AttrKind, r.Kind.String()).
		SetFloat(AttrValue, r.Value).
		SetStr(attrUnit, r.Kind.unit()).
		SetInt(AttrSeq, int64(r.Seq)).
		SetInt(attrMillis, r.Millis)
	e.Stamp = time.UnixMilli(r.Millis)
	return e
}

// ActuatorProxyDevice is the proxy for an actuator: at creation it
// subscribes, on the device's behalf, to "actuate" events addressed to
// the device's name, and it translates each such event into the
// actuator's native command bytes.
type ActuatorProxyDevice struct {
	deviceType string
	name       string
}

var _ proxy.Device = (*ActuatorProxyDevice)(nil)

// NewActuatorProxyDevice builds the translator for a named actuator.
func NewActuatorProxyDevice(deviceType, name string) *ActuatorProxyDevice {
	return &ActuatorProxyDevice{deviceType: deviceType, name: name}
}

// DeviceType implements proxy.Device.
func (d *ActuatorProxyDevice) DeviceType() string { return d.deviceType }

// TranslateIn implements proxy.Device: actuators may report command
// completions as native readings of kind 0 — not supported; reject.
func (d *ActuatorProxyDevice) TranslateIn(data []byte) ([]*event.Event, error) {
	return nil, fmt.Errorf("sensor: actuator %q sent unexpected data", d.name)
}

// TranslateOut implements proxy.Device: "actuate" events become native
// commands; anything else is forwarded untranslated.
func (d *ActuatorProxyDevice) TranslateOut(e *event.Event) ([]byte, bool, error) {
	if e.Type() != TypeActuate {
		return nil, false, nil
	}
	actionV, ok := e.Get(AttrAction)
	if !ok {
		return nil, false, fmt.Errorf("sensor: actuate event without action")
	}
	action, _ := actionV.Str()
	op, ok := opcodeForAction(action)
	if !ok {
		return nil, false, fmt.Errorf("sensor: unknown action %q", action)
	}
	var arg float64
	if v, ok := e.Get(attrArg); ok {
		switch v.Type() {
		case event.TypeFloat:
			arg, _ = v.Float()
		case event.TypeInt:
			i, _ := v.Int()
			arg = float64(i)
		}
	}
	return encodeCommand(Command{Opcode: op, Arg: arg}), true, nil
}

// InitialSubscriptions implements proxy.Device: actuate events for
// this device by name.
func (d *ActuatorProxyDevice) InitialSubscriptions() []*event.Filter {
	return []*event.Filter{
		event.NewFilter().
			WhereType(TypeActuate).
			Where(AttrTarget, event.OpEq, event.Str(d.name)),
	}
}
