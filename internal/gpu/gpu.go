// Package gpu models the per-rank accelerator: a device with V100-like
// throughput parameters and CUDA-style streams whose kernels execute in
// order on a device timeline. Kernels carry real Go work (they actually
// transform buffers — the simulation's data plane) plus a modeled cost
// (the time plane). The §V-B compression/communication pipeline is built
// on Stream.Launch returning each kernel's virtual completion time: the
// host "watches the progress counter" by advancing to that time before
// issuing the corresponding put.
package gpu

import (
	"math"

	"repro/internal/obs"
)

// Clock is the slice of the simulator a device needs: the owning rank's
// virtual clock. *mpi.Comm satisfies it.
type Clock interface {
	Now() float64
	Elapse(d float64)
	AdvanceTo(t float64)
}

// Device describes one GPU's performance envelope.
type Device struct {
	// MemBW is the device memory bandwidth in bytes/s.
	MemBW float64
	// FFTFlops64 and FFTFlops32 are the sustained flop rates of batched
	// 1-D FFT kernels in FP64 and FP32.
	FFTFlops64 float64
	FFTFlops32 float64
	// KernelLaunch is the host-side cost of launching a kernel;
	// KernelLatency is the minimum device-side kernel duration.
	KernelLaunch  float64
	KernelLatency float64
}

// V100 returns the device model used throughout the reproduction
// (NVIDIA V100, the Summit GPU; FFT rates are sustained cuFFT-class
// numbers, not peaks).
func V100() Device {
	return Device{
		MemBW:         800e9,
		FFTFlops64:    500e9,
		FFTFlops32:    1000e9,
		KernelLaunch:  3e-6,
		KernelLatency: 4e-6,
	}
}

// FFTCost returns the device time of a batched 1-D FFT: count transforms
// of length n in the given precision (64 or 32 bits), with a
// memory-bandwidth floor (each pass streams the data log n times is
// pessimistic; one read+write per butterfly stage group is folded into
// the flop rate, so the floor is two full sweeps).
func (d Device) FFTCost(n, count int, precisionBits int) float64 {
	if n <= 1 || count <= 0 {
		return d.KernelLatency
	}
	flops := 5 * float64(n) * math.Log2(float64(n)) * float64(count)
	rate := d.FFTFlops64
	elem := 16.0
	if precisionBits == 32 {
		rate = d.FFTFlops32
		elem = 8.0
	}
	t := flops / rate
	floor := 2 * elem * float64(n) * float64(count) / d.MemBW
	if floor > t {
		t = floor
	}
	if t < d.KernelLatency {
		t = d.KernelLatency
	}
	return t
}

// CopyCost returns the device time of a memory-bound kernel moving the
// given number of bytes (read + write).
func (d Device) CopyCost(bytes int) float64 {
	t := 2 * float64(bytes) / d.MemBW
	if t < d.KernelLatency {
		t = d.KernelLatency
	}
	return t
}

// CompressCost returns the device time of a compression (or
// decompression) kernel over bytesIn input bytes producing bytesOut:
// memory-bound on the sum of the streams.
func (d Device) CompressCost(bytesIn, bytesOut int) float64 {
	t := (float64(bytesIn) + float64(bytesOut)) / d.MemBW
	if t < d.KernelLatency {
		t = d.KernelLatency
	}
	return t
}

// Stream is an in-order execution queue on a device, owned by one rank.
type Stream struct {
	dev     Device
	clock   Clock
	readyAt float64
	obs     *obs.Rank
}

// NewStream creates a stream on the device driven by the given clock.
func NewStream(dev Device, clock Clock) *Stream {
	return &Stream{dev: dev, clock: clock}
}

// SetObserver attaches the rank's observability handle: every launched
// kernel is then recorded as a span on the rank's GPU track. A nil
// handle (the default) records nothing and costs nothing.
func (s *Stream) SetObserver(rk *obs.Rank) { s.obs = rk }

// Launch enqueues a kernel with the given device-time cost and executes
// its work function immediately (safe under the cooperative scheduler:
// stream order equals program order for a single owner, and the host
// only observes results after synchronizing). It returns the kernel's
// virtual completion time — the §V-B progress counter value the host can
// wait on. The host clock pays the launch overhead.
func (s *Stream) Launch(cost float64, work func()) (completion float64) {
	return s.LaunchTagged(obs.PhaseKernel, cost, work)
}

// LaunchTagged is Launch with an explicit phase recorded for the
// kernel's span on the GPU track (compress, pack, ...).
func (s *Stream) LaunchTagged(ph obs.Phase, cost float64, work func()) (completion float64) {
	s.clock.Elapse(s.dev.KernelLaunch)
	start := s.clock.Now()
	if s.readyAt > start {
		start = s.readyAt
	}
	s.readyAt = start + cost
	if work != nil {
		work()
	}
	s.obs.Span(obs.TrackGPU, ph, start, s.readyAt, 0)
	return s.readyAt
}

// Synchronize blocks the host until all enqueued kernels completed.
func (s *Stream) Synchronize() {
	s.clock.AdvanceTo(s.readyAt)
}

// ReadyAt returns the completion time of the last enqueued kernel.
func (s *Stream) ReadyAt() float64 { return s.readyAt }

// Device returns the stream's device parameters.
func (s *Stream) Device() Device { return s.dev }
