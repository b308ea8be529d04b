package tensor

// DotGeneric and friends expose the reference kernels to the package
// benchmarks so one binary can measure both sides of the dispatch seam.
var (
	DotGeneric     = dotGeneric
	DotSqGeneric   = dotSqGeneric
	AxpyGeneric    = axpyGeneric
	DotAxpyGeneric = dotAxpyGeneric
	MatVecGeneric  = matVecGeneric
)
