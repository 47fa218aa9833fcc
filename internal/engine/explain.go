package engine

// ExplainPhysical runs the planning step an action would run for this
// dataset and renders the resulting physical plan: the stages the job
// would launch, their shuffle/broadcast dependencies, the pipelined
// operator chains, and the fan-in memo sites — exactly what the executor
// consumes.
func ExplainPhysical[T any](d Dataset[T]) string {
	s := d.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buildExecPlan(d.n, nil).String()
}
