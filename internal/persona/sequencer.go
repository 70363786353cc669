package persona

import (
	"math/rand"

	"coreda/internal/adl"
)

// Sequencer generates episodes of a user performing an activity as
// discrete step sequences. It is the workload generator for the learning
// (Figure 4) and prediction (Table 4) experiments.
type Sequencer struct {
	Profile  *Profile
	Activity *adl.Activity
	RNG      *rand.Rand
}

// CleanEpisode returns one complete, error-free performance — what the
// paper calls "a complete process of an ADL", its unit of training data.
func (s *Sequencer) CleanEpisode() ([]adl.StepID, error) {
	r, err := s.Profile.Routine(s.Activity.Name, s.RNG)
	if err != nil {
		return nil, err
	}
	return r.Clone(), nil
}

// DetectedEpisode returns one clean performance as the sensing subsystem
// would record it: each step survives with its detection probability
// (detect returns the per-step extract precision, e.g. Table 3's rates).
// Missed steps simply vanish from the sequence, as a missed 3-of-10
// detection does.
func (s *Sequencer) DetectedEpisode(detect func(adl.StepID) float64) ([]adl.StepID, error) {
	r, err := s.Profile.Routine(s.Activity.Name, s.RNG)
	if err != nil {
		return nil, err
	}
	var out []adl.StepID
	for _, step := range r {
		if s.RNG.Float64() < detect(step) {
			out = append(out, step)
		}
	}
	return out, nil
}

// TrainingSet generates n clean episodes (the paper's "120 training
// samples of each ADL").
func (s *Sequencer) TrainingSet(n int) ([][]adl.StepID, error) {
	out := make([][]adl.StepID, n)
	for i := range out {
		ep, err := s.CleanEpisode()
		if err != nil {
			return nil, err
		}
		out[i] = ep
	}
	return out, nil
}
