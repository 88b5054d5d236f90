"""echokit: echo video analysis with factored spatio-temporal convolutions.

Subpackages and modules:

convops    - dense 3D/2D/1D convolutions, Kronecker kernels, op counting
tensorio   - CTR1 binary tensor container; opens every input path
nn         - layers, reverse-mode gradients, finite-difference checks, optimizers
beats      - segmentation-area signal, extremum detection, beat clipping
ef         - ejection-fraction formula, regression model, training, MAE
lvd        - keypoint geometry, inverse-sigma weighted loss, dimension model
synth      - deterministic synthetic videos/frames with exact ground truth
datasets   - scene-to-sample conversion and dataset directories
checkpoint - model checkpoints: JSON manifest plus CTR1 parameters
parallel   - forked workers and threaded runs over every usable CPU
report     - run reports and the one JSON writer
errors     - the typed errors behind exit code 2
cli        - command-line entry point with machine-readable reports
"""

__version__ = "0.1.0"
