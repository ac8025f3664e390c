"""denslab: a desk-scale laboratory for 1D diffusions whose drift depends pointwise on
their own density, and for the estimates that govern them (see README.md)."""
