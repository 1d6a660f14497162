// The benchmark is its own module so it builds from its own build file;
// the replace directive points at the repository it measures, and the
// ampsinf/ path prefix keeps the repo's internal packages importable.
module ampsinf/bench

go 1.22

require ampsinf v0.0.0

replace ampsinf => ../
