"""Multi-trial ICA with optional label supervision.

Joint estimation of a shared unmixing matrix across trials and, when
labels are present, per-target predictive heads that read individual
unmixed sources.  See the README for the model, the solver, and the CLI.
Names are imported from their modules (``mtsica.solver``,
``mtsica.synthgen``, ...); the package namespace holds ``__version__``.
"""

__version__ = "0.1.0"
