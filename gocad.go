// Package gocad is a Go reproduction of JavaCAD — "Virtual Simulation of
// Distributed IP-Based Designs" (Dalpasso, Benini, Bogliolo; DAC 1999) —
// an Internet-based design environment with a secure client-server
// architecture that lets designers perform functional simulation, fault
// simulation, and cost estimation of circuits containing IP components,
// while protecting the IP of both vendors and users.
//
// This root package is the public facade: it re-exports the user-facing
// API of the internal subsystem packages so a downstream design
// environment can depend on a single import path. The building blocks:
//
//   - design model: connectors, modules, circuits, the standard module
//     library (registers, arithmetic, gates, stimulus, monitors);
//   - simulation: the multilevel event-driven kernel with concurrent
//     schedulers, run through SimulationController;
//   - estimation: parameters, estimators, setup controllers, fees;
//   - distribution: provider servers hosting private parts, client
//     stubs binding remote components, pattern-buffered nonblocking
//     remote estimation, network emulation;
//   - testability: symbolic fault lists, detection tables, and virtual
//     fault simulation of designs containing undisclosed IP.
package gocad

import (
	"repro/internal/core"
	"repro/internal/estim"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/iplib"
	"repro/internal/module"
	"repro/internal/netsim"
	"repro/internal/ppp"
	"repro/internal/provider"
	"repro/internal/replica"
	"repro/internal/sealed"
	"repro/internal/shard"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/watermark"
)

// Logic values and payloads.
type (
	// Bit is a four-valued logic level (B0, B1, BX, BZ).
	Bit = signal.Bit
	// Word is a fixed-width vector of bits.
	Word = signal.Word
	// Value is any payload a connector can carry.
	Value = signal.Value
	// BitValue adapts a Bit to the Value interface.
	BitValue = signal.BitValue
	// WordValue adapts a Word to the Value interface.
	WordValue = signal.WordValue
)

// The four logic levels.
const (
	B0 = signal.B0
	B1 = signal.B1
	BX = signal.BX
	BZ = signal.BZ
)

// WordFromUint64 builds a known word from an integer.
func WordFromUint64(v uint64, width int) Word { return signal.WordFromUint64(v, width) }

// ParseWord builds a word from its MSB-first spelling (e.g. "1X0Z").
func ParseWord(s string) (Word, error) { return signal.ParseWord(s) }

// Design model.
type (
	// Module is a design component.
	Module = module.Module
	// Connector ties two ports together.
	Connector = module.Connector
	// Circuit is a hierarchical collection of components.
	Circuit = module.Circuit
	// Skeleton is the embeddable base of every component.
	Skeleton = module.Skeleton
	// SimulationController runs event-driven simulations over a design.
	SimulationController = module.Simulation
)

// Connector constructors.
var (
	NewBitConnector    = module.NewBitConnector
	NewWordConnector   = module.NewWordConnector
	NewCustomConnector = module.NewCustomConnector
)

// Standard module library.
var (
	NewCircuit            = module.NewCircuit
	NewSimulation         = module.NewSimulation
	NewSkeleton           = module.NewSkeleton
	NewRegister           = module.NewRegister
	NewMult               = module.NewMult
	NewAdder              = module.NewAdder
	NewSub                = module.NewSub
	NewComparator         = module.NewComparator
	NewMux2               = module.NewMux2
	NewCounter            = module.NewCounter
	NewClockGen           = module.NewClockGen
	NewFanout             = module.NewFanout
	NewDelay              = module.NewDelay
	NewGateModule         = module.NewGateModule
	NewNetlistModule      = module.NewNetlistModule
	NewWordToBits         = module.NewWordToBits
	NewBitsToWord         = module.NewBitsToWord
	NewFuncBitModule      = module.NewFuncBitModule
	NewFuncWordModule     = module.NewFuncWordModule
	NewRandomPrimaryInput = module.NewRandomPrimaryInput
	NewPatternInput       = module.NewPatternInput
	NewConstInput         = module.NewConstInput
	NewPrimaryOutput      = module.NewPrimaryOutput
	ApplySetup            = module.ApplySetup
)

// Simulation kernel.
type (
	// Time is the discrete simulation time.
	Time = sim.Time
	// SchedulerID identifies one scheduler instance.
	SchedulerID = sim.SchedulerID
	// Stats summarizes a completed run.
	Stats = sim.Stats
	// WorkerPool bounds parallel fan-outs (0 = one worker per CPU,
	// 1 = serial); results merge in index order, so output is
	// bit-identical at every worker count.
	WorkerPool = sim.Pool
)

// Estimation framework.
type (
	// Parameter names a cost metric.
	Parameter = estim.Parameter
	// Estimator evaluates one parameter of one component.
	Estimator = estim.Estimator
	// Setup is the setup controller selecting and recording estimators.
	Setup = estim.Setup
	// Criteria chooses among candidate estimators.
	Criteria = estim.Criteria
)

// Predefined parameters.
const (
	ParamArea      = estim.ParamArea
	ParamDelay     = estim.ParamDelay
	ParamAvgPower  = estim.ParamAvgPower
	ParamPeakPower = estim.ParamPeakPower
)

// Estimator selection preferences.
const (
	PreferAccuracy = estim.PreferAccuracy
	PreferCost     = estim.PreferCost
	PreferSpeed    = estim.PreferSpeed
)

// NewSetup returns an empty setup controller.
func NewSetup(name string) *Setup { return estim.NewSetup(name) }

// Gate-level structure.
type (
	// Netlist is a structural gate-level circuit.
	Netlist = gate.Netlist
	// GateKind enumerates primitive gate types.
	GateKind = gate.Kind
)

// Netlist generators.
var (
	NewNetlist      = gate.NewNetlist
	RippleAdder     = gate.RippleAdder
	ArrayMultiplier = gate.ArrayMultiplier
	HalfAdderIP     = gate.HalfAdderIP
)

// Power/area/delay characterization (the PPP substitute).
var (
	NewPowerSimulator = ppp.NewSimulator
	DefaultCellLib    = ppp.DefaultLibrary
	AreaOf            = ppp.AreaOf
	CriticalPath      = ppp.CriticalPath
)

// Testability.
type (
	// DetectionTable is a component's per-pattern testability view.
	DetectionTable = fault.DetectionTable
	// TestabilityService answers fault-list and detection-table queries.
	TestabilityService = fault.TestabilityService
	// VirtualSimulator runs virtual fault simulation over an IP design.
	VirtualSimulator = fault.VirtualSimulator
	// FaultResult summarizes a fault simulation run.
	FaultResult = fault.Result
)

// Testability constructors.
var (
	NewLocalTestability        = fault.NewLocalTestability
	NewVirtualSimulator        = fault.NewVirtualSimulator
	SerialFaultSimulate        = fault.SerialSimulate
	SerialFaultSimulateWorkers = fault.SerialSimulateFaultsWorkers
)

// Distribution: providers, clients, remote components.
type (
	// Provider is an IP provider server.
	Provider = provider.Provider
	// ProviderComponent is a catalogue entry with its private part.
	ProviderComponent = provider.Component
	// IPClient is the typed stub layer over one provider session.
	IPClient = iplib.IPClient
	// BoundInstance is one instantiated remote component.
	BoundInstance = iplib.BoundInstance
	// ComponentSpec is a catalogue entry.
	ComponentSpec = iplib.ComponentSpec
	// RemoteMult is the paper's multiplier as a remote module.
	RemoteMult = core.RemoteMult
	// RemotePowerEstimator is the buffered nonblocking remote estimator.
	RemotePowerEstimator = core.RemotePowerEstimator
	// EstimationCache is the client-side content-addressed cache remote
	// estimators share via EnableCache.
	EstimationCache = core.EstimationCache
	// Connection is one authenticated client-provider session.
	Connection = core.Connection
	// NetworkProfile characterizes an emulated network environment.
	NetworkProfile = netsim.Profile
)

// Provider-side constructors and the standard catalogue.
var (
	NewProvider              = provider.New
	MultFastLowPower         = provider.MultFastLowPower
	HalfAdderIP1             = provider.HalfAdderIP1
	NewIPClient              = iplib.NewIPClient
	NewFactoryRegistry       = iplib.NewFactoryRegistry
	ConnectInProcess         = core.ConnectInProcess
	ConnectTCP               = core.ConnectTCP
	NewRemoteMult            = core.NewRemoteMult
	NewRemoteEstimator       = core.NewRemotePowerEstimator
	NewRemoteTimingEstimator = core.NewRemoteTimingEstimator
	NewEstimationCache       = core.NewEstimationCache
)

// Emulated network environments.
var (
	NetInProcess = netsim.InProcess
	NetLocal     = netsim.Local
	NetLAN       = netsim.LAN
	NetWAN       = netsim.WAN
)

// Replication, failover & quorum (DESIGN.md §10).
type (
	// ReplicaSet holds equivalent provider endpoints behind health-gated
	// circuit breakers; its Dialer is the failover policy.
	ReplicaSet = replica.Set
	// ReplicaEndpoint is one named, dialable replica.
	ReplicaEndpoint = replica.Endpoint
	// BreakerConfig tunes the per-replica circuit breakers.
	BreakerConfig = replica.BreakerConfig
	// ReplicaStatus is a point-in-time snapshot of one replica's breaker
	// state and health record.
	ReplicaStatus = replica.Status
	// QuorumTestability answers testability queries by index-ordered
	// majority vote over K equivalent services.
	QuorumTestability = fault.QuorumTestability
	// ReplicaDivergence is one out-voted (or erroring) replica answer,
	// surfaced in fault-simulation results.
	ReplicaDivergence = fault.ReplicaDivergence
	// ChaosSchedule is a deterministic per-replica fault schedule for
	// failover testing.
	ChaosSchedule = netsim.ChaosSchedule
	// ChaosReplicaScript is one replica's scripted failure behavior.
	ChaosReplicaScript = netsim.ReplicaScript
)

// Replication constructors and the chaos harness.
var (
	ConnectReplicated    = core.ConnectReplicated
	NewReplicaSet        = replica.NewSet
	NewQuorumTestability = fault.NewQuorumTestability
	NewChaosSchedule     = netsim.NewChaosSchedule
	ScriptedChaos        = netsim.ScriptedSchedule
	AllDeadChaos         = netsim.AllDeadSchedule
)

// Experiment harnesses (the paper's evaluation).
type (
	// Scenario selects AL, ER or MR.
	Scenario = core.Scenario
	// ScenarioConfig parameterizes a performance run.
	ScenarioConfig = core.Config
	// ScenarioResult is one Table 2 row.
	ScenarioResult = core.Result
)

// The three scenarios.
const (
	AllLocal         = core.AllLocal
	EstimatorRemote  = core.EstimatorRemote
	MultiplierRemote = core.MultiplierRemote
)

// Experiment entry points.
var (
	RunScenario           = core.Run
	DefaultScenarioConfig = core.DefaultConfig
	RunTable1             = core.RunTable1
	RunTable2             = core.RunTable2
	RunFigure3            = core.RunFigure3
	RunFigure4            = core.RunFigure4
)

// Sharded execution (DESIGN.md §11): one design partitioned across N
// concurrent schedulers with deterministic cross-shard event exchange —
// results are bit-identical to the single-scheduler run at any N.
type (
	// ShardPlan is a validated partition of a circuit's leaf modules.
	ShardPlan = shard.Plan
	// ShardOptions parameterizes a sharded run (count, window, workers).
	ShardOptions = shard.Options
	// ShardStats summarizes a sharded run (barriers, solo turns, cut).
	ShardStats = shard.Stats
	// GenerateSpec sizes a seeded random hierarchical design.
	GenerateSpec = core.GenSpec
)

// Sharded-execution entry points.
var (
	PartitionCircuit    = shard.PartitionCircuit
	RunShardedCircuit   = shard.Run
	RunShardedScenario  = core.RunSharded
	GenerateCircuitRand = core.GenerateCircuitRand
)

// Sequential circuits and general fault models (the paper's "feasible
// extensions", implemented).
type (
	// Sequential is a synchronous circuit in Huffman form.
	Sequential = gate.Sequential
	// BridgeFault is a wired-AND bridging fault between two nets.
	BridgeFault = gate.Bridge
	// ScanPattern is one full-scan test (state + inputs).
	ScanPattern = fault.ScanPattern
)

// Sequential and bridging entry points.
var (
	NewSequential         = gate.NewSequential
	SequentialCounter     = gate.SequentialCounter
	ScanFaultSimulate     = fault.ScanSimulate
	RandomScanPatterns    = fault.RandomScanPatterns
	ScanPatternsRand      = fault.RandomScanPatternsRand
	BridgeFaultSimulate   = fault.SerialSimulateBridges
	EnumerateBridgeFaults = fault.EnumerateBridges
)

// Built-in activity-based estimators.
var (
	NewIOActivityEstimator = estim.NewIOActivity
	NewActivityPower       = estim.NewActivityPower
	NewPeakTracker         = estim.NewPeakTracker
)

// Related-work IP-protection baselines (for comparison with virtual
// simulation; see internal/watermark and internal/sealed).
var (
	WatermarkCapacity  = watermark.Capacity
	WatermarkEmbed     = watermark.Embed
	WatermarkExtract   = watermark.Extract
	WatermarkVerify    = watermark.Verify
	WatermarkSignature = watermark.SignatureFromString
	SealModel          = sealed.Seal
	OpenSealedModel    = sealed.Open
)

// SealedModel is an encrypted simulation model as shipped to a user.
type SealedModel = sealed.Model

// Waveform export.
var (
	NewVCD         = trace.NewVCD
	DumpVCDOutputs = trace.DumpOutputs
)

// ModelConstraint is one negotiation demand (see IPClient.Negotiate).
type ModelConstraint = iplib.ModelConstraint

// Design-rule checking and test generation.
type (
	// DesignIssue is one finding from ValidateDesign.
	DesignIssue = module.Issue
	// TestSet is a compacted component test sequence (purchasable from
	// providers via BoundInstance.TestSet).
	TestSet = fault.TestSet
)

// Design-rule and test-generation entry points.
var (
	ValidateDesign    = module.Validate
	DesignErrors      = module.Errors
	GenerateTests     = fault.GenerateTests
	GenerateTestsRand = fault.GenerateTestsRand
	C17               = gate.C17
)
