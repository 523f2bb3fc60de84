package sensor

import (
	"math"
	"math/rand"
)

// Waveform generates a deterministic synthetic physiological signal:
// baseline + slow sinusoidal drift + bounded noise, with optional
// scripted episodes (e.g. a tachycardia run) that shift the baseline
// for a range of samples. Given the same seed and parameters the
// sequence is reproducible, which the tests and benchmarks rely on.
type Waveform struct {
	baseline float64
	drift    float64 // amplitude of the slow sine
	period   float64 // samples per sine cycle
	noise    float64 // half-width of uniform noise
	min, max float64

	episodes []episode
	rng      *rand.Rand
	tick     int
}

type episode struct {
	start, end int
	delta      float64
}

// WaveformOption configures a Waveform.
type WaveformOption func(*Waveform)

// withDrift sets the slow-drift amplitude and period (in samples).
func withDrift(amplitude float64, periodSamples float64) WaveformOption {
	return func(w *Waveform) {
		w.drift = amplitude
		if periodSamples > 0 {
			w.period = periodSamples
		}
	}
}

// withNoise sets the uniform noise half-width.
func withNoise(halfWidth float64) WaveformOption {
	return func(w *Waveform) { w.noise = halfWidth }
}

// withClamp bounds generated samples.
func withClamp(min, max float64) WaveformOption {
	return func(w *Waveform) { w.min, w.max = min, max }
}

// WithEpisode adds a baseline shift of delta for samples in
// [start, start+duration).
func WithEpisode(start, duration int, delta float64) WaveformOption {
	return func(w *Waveform) {
		w.episodes = append(w.episodes, episode{
			start: start, end: start + duration, delta: delta,
		})
	}
}

// newWaveform builds a generator with the given baseline and seed.
func newWaveform(baseline float64, seed int64, opts ...WaveformOption) *Waveform {
	w := &Waveform{
		baseline: baseline,
		period:   240,
		min:      math.Inf(-1),
		max:      math.Inf(1),
		rng:      rand.New(rand.NewSource(seed)),
	}
	for _, o := range opts {
		o(w)
	}
	return w
}

// next produces the next sample.
func (w *Waveform) next() float64 {
	v := w.baseline
	if w.drift != 0 {
		v += w.drift * math.Sin(2*math.Pi*float64(w.tick)/w.period)
	}
	if w.noise > 0 {
		v += (w.rng.Float64()*2 - 1) * w.noise
	}
	for _, ep := range w.episodes {
		if w.tick >= ep.start && w.tick < ep.end {
			v += ep.delta
		}
	}
	w.tick++
	return math.Min(w.max, math.Max(w.min, v))
}

// Standard physiological generators. The seeds keep multiple sensors
// decorrelated while staying reproducible.

// HeartRateWaveform models a resting adult heart rate (~72 bpm).
func HeartRateWaveform(seed int64, opts ...WaveformOption) *Waveform {
	base := []WaveformOption{
		withDrift(6, 300),
		withNoise(2.5),
		withClamp(30, 230),
	}
	return newWaveform(72, seed, append(base, opts...)...)
}

// SpO2Waveform models oxygen saturation (~97 %).
func SpO2Waveform(seed int64, opts ...WaveformOption) *Waveform {
	base := []WaveformOption{
		withDrift(0.8, 500),
		withNoise(0.4),
		withClamp(70, 100),
	}
	return newWaveform(97.2, seed, append(base, opts...)...)
}

// TemperatureWaveform models core body temperature (~36.9 °C).
func TemperatureWaveform(seed int64, opts ...WaveformOption) *Waveform {
	base := []WaveformOption{
		withDrift(0.3, 2000),
		withNoise(0.05),
		withClamp(33, 43),
	}
	return newWaveform(36.9, seed, append(base, opts...)...)
}

// BPSystolicWaveform models systolic pressure (~118 mmHg).
func BPSystolicWaveform(seed int64, opts ...WaveformOption) *Waveform {
	base := []WaveformOption{
		withDrift(7, 400),
		withNoise(3),
		withClamp(60, 260),
	}
	return newWaveform(118, seed, append(base, opts...)...)
}

// bpDiastolicWaveform models diastolic pressure (~76 mmHg).
func bpDiastolicWaveform(seed int64, opts ...WaveformOption) *Waveform {
	base := []WaveformOption{
		withDrift(4, 400),
		withNoise(2),
		withClamp(40, 160),
	}
	return newWaveform(76, seed, append(base, opts...)...)
}

// glucoseWaveform models blood glucose (~5.4 mmol/L).
func glucoseWaveform(seed int64, opts ...WaveformOption) *Waveform {
	base := []WaveformOption{
		withDrift(0.9, 900),
		withNoise(0.15),
		withClamp(1.5, 30),
	}
	return newWaveform(5.4, seed, append(base, opts...)...)
}

// WaveformFor returns the standard generator for a sensor kind.
func WaveformFor(kind Kind, seed int64, opts ...WaveformOption) *Waveform {
	switch kind {
	case KindHeartRate:
		return HeartRateWaveform(seed, opts...)
	case KindSpO2:
		return SpO2Waveform(seed, opts...)
	case KindTemperature:
		return TemperatureWaveform(seed, opts...)
	case KindBPSystolic:
		return BPSystolicWaveform(seed, opts...)
	case KindBPDiastolic:
		return bpDiastolicWaveform(seed, opts...)
	case KindGlucose:
		return glucoseWaveform(seed, opts...)
	default:
		return newWaveform(0, seed, opts...)
	}
}
