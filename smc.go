// Package smc is the public API of the AMUSE self-managed-cell event
// service: a content-based publish/subscribe event bus with reliable,
// ordered, at-most-once delivery for body-area networks of medical
// devices, plus the discovery and policy services that make a cell
// self-managing.
//
// It reproduces the system of Strowes et al., "An Event Service
// Supporting Autonomic Management of Ubiquitous Systems for e-Health"
// (ICDCS Workshops 2006). EXPERIMENTS.md sets what was measured
// against the paper's evaluation, benchmark/README.md describes the
// benchmark of the service itself, and test/e2e/README.md the
// black-box chaos harness over the real daemons.
//
// # Quick start
//
//	net := smc.NewNetwork(smc.LinkPerfect)
//	defer net.Close()
//
//	cell, _ := smc.NewCell(mustAttach(net, 1), mustAttach(net, 2), smc.Config{
//		Cell:   "ward-3",
//		Secret: []byte("shared-secret"),
//	})
//	cell.Start()
//	defer cell.Close()
//
//	dev, _ := smc.JoinCell(mustAttach(net, 3), smc.DeviceConfig{
//		Type: "generic", Name: "monitor", Secret: []byte("shared-secret"),
//	})
//	defer dev.Close()
//
//	_ = dev.Client.Subscribe(smc.NewFilter().WhereType("alarm"))
//	e, _ := dev.Client.NextEvent(time.Second)
package smc

import (
	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/discovery"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/policy"
	"github.com/amuse/smc/internal/sensor"
	smccore "github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/transport"
)

// Core event-model types.
type (
	// Event is a set of named, typed attributes plus metadata.
	Event = event.Event
	// Value is a typed attribute value.
	Value = event.Value
	// Filter is a conjunction of constraints over attributes.
	Filter = event.Filter
	// Constraint restricts one attribute.
	Constraint = event.Constraint
	// Op is a constraint operator.
	Op = event.Op
	// ID is a 48-bit service identifier.
	ID = ident.ID
)

// Constraint operators.
const (
	OpEq       = event.OpEq
	OpNe       = event.OpNe
	OpLt       = event.OpLt
	OpLe       = event.OpLe
	OpGt       = event.OpGt
	OpGe       = event.OpGe
	OpPrefix   = event.OpPrefix
	OpSuffix   = event.OpSuffix
	OpContains = event.OpContains
	OpExists   = event.OpExists
)

// Event constructors and value helpers.
var (
	// NewEvent returns an empty event.
	NewEvent = event.New
	// NewTypedEvent returns an event with the "type" attribute set.
	NewTypedEvent = event.NewTyped
	// AcquireEvent returns a recycled event from the free list for the
	// zero-allocation publish path; see event.Acquire for the
	// release/retention contract.
	AcquireEvent = event.Acquire
	// NewFilter returns an empty filter (matches everything).
	NewFilter = event.NewFilter
	// Int, Float, Str, Bool and Bytes build attribute values.
	Int   = event.Int
	Float = event.Float
	Str   = event.Str
	Bool  = event.Bool
	Bytes = event.Bytes
)

// Cell composition.
type (
	// Config configures a cell.
	Config = smccore.Config
	// Cell is a running self-managed cell (bus + discovery + policy).
	Cell = smccore.Cell
	// DeviceConfig configures a device-side join.
	DeviceConfig = smccore.DeviceConfig
	// RetryConfig bounds JoinCellWithRetry's backoff.
	RetryConfig = smccore.RetryConfig
	// Device is a joined member (client + heartbeats).
	Device = smccore.Device
	// Client is a member's connection to the event bus.
	Client = client.Client
	// FederateConfig configures a cell-to-cell import link.
	FederateConfig = smccore.FederateConfig
	// FederationLink imports events from a peer cell.
	FederationLink = smccore.FederationLink
	// FederationStats is a point-in-time snapshot of one link.
	FederationStats = smccore.FederationStats
)

// Cell and device entry points.
var (
	// NewCell wires a cell over two transport endpoints.
	NewCell = smccore.NewCell
	// JoinCell performs the device-side discovery/admission flow.
	JoinCell = smccore.JoinCell
	// JoinCellWithRetry is JoinCell with bounded exponential backoff
	// and jitter; the right default for devices on lossy links.
	JoinCellWithRetry = smccore.JoinCellWithRetry
	// Federate joins a peer cell and imports matching events.
	Federate = smccore.Federate
)

// AttrFederatedFrom marks events imported from a peer cell.
const AttrFederatedFrom = smccore.AttrFederatedFrom

// Matching mechanisms (the paper's two buses, plus the type-based
// engine its future work names).
const (
	// MatcherSiena is the Siena-based engine with translation.
	MatcherSiena = matcher.KindSiena
	// MatcherFast is the dedicated fast-forwarding engine.
	MatcherFast = matcher.KindFast
	// MatcherTyped is the type-based engine (§VI future work):
	// subscriptions pin a '/'-separated type path and receive all
	// subtypes.
	MatcherTyped = matcher.KindTyped
)

// Transports and simulated networks.
type (
	// Transport carries byte arrays between services (§III-D).
	Transport = transport.Transport
	// Network is the in-process simulated datagram network.
	Network = netsim.Network
	// LinkProfile describes a simulated link's behaviour.
	LinkProfile = netsim.Profile
)

// Link profiles (see internal/netsim for calibration notes).
var (
	LinkPerfect   = netsim.Perfect
	LinkUSB       = netsim.USBLink
	LinkBluetooth = netsim.Bluetooth
	LinkZigBee    = netsim.ZigBee
	LinkWiFi      = netsim.WiFi
)

// NewNetwork builds a simulated network with the given default link.
func NewNetwork(link LinkProfile, opts ...netsim.Option) *Network {
	return netsim.New(link, opts...)
}

// NewUDPTransport opens a real UDP datagram transport, deriving the
// service ID from the bound socket as the prototype does (§IV).
var NewUDPTransport = transport.NewUDPTransport

// Policy service surface.
type (
	// PolicyEngine hosts obligation and authorisation policies.
	PolicyEngine = policy.Engine
	// Obligation is an event-condition-action rule.
	Obligation = policy.Obligation
	// Authorization is an access-control rule.
	Authorization = policy.Authorization
)

// ParsePolicies parses Ponder-lite policy text.
var ParsePolicies = policy.Parse

// Synthetic medical devices (see internal/sensor).
type (
	// SensorKind identifies a physiological measurement.
	SensorKind = sensor.Kind
	// Reading is one native sensor sample.
	Reading = sensor.Reading
	// SensorSim is a simulated sensor device.
	SensorSim = sensor.Sim
	// ActuatorSim is a simulated actuator device.
	ActuatorSim = sensor.ActuatorSim
)

// Sensor kinds.
const (
	SensorHeartRate   = sensor.KindHeartRate
	SensorSpO2        = sensor.KindSpO2
	SensorTemperature = sensor.KindTemperature
	SensorBPSystolic  = sensor.KindBPSystolic
	SensorBPDiastolic = sensor.KindBPDiastolic
	SensorGlucose     = sensor.KindGlucose
)

// Well-known event attributes and classes.
const (
	AttrType        = event.AttrType
	AttrMember      = event.AttrMember
	AttrDeviceType  = event.AttrDeviceType
	TypeNewMember   = event.TypeNewMember
	TypePurgeMember = event.TypePurgeMember
	TypeAlarm       = event.TypeAlarm
	TypeReading     = sensor.TypeReading
	TypeActuate     = sensor.TypeActuate
)

// Bus surface exposed for advanced embedding (building a bus without
// the discovery/policy services).
type (
	// Bus is the event bus.
	Bus = bus.Bus
	// BusOption configures a bus.
	BusOption = bus.Option
)

// Discovery surface for custom admission logic.
type (
	// MemberInfo is a discovery-service membership record.
	MemberInfo = discovery.MemberInfo
	// JoinResult describes a successful admission.
	JoinResult = discovery.JoinResult
)
