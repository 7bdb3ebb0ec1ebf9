"""Probabilistic transformer with width-stable parametrization.

A CRF contextualizer whose forward pass is unrolled mean-field inference over
label, head-selection, and topic variables, parametrized so that one
hyperparameter point transfers across model widths. Ships with its own
reverse-mode autodiff, a masked-LM trainer, width-scaling diagnostics, and a
neighborhood-based hyperparameter verification procedure.

Public names load their submodule on first access (PEP 562), so importing
the package, or `mupt.cli`, does not import NumPy: the CLI can still pin the
BLAS thread pools before NumPy sizes them.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("PTConfig", "InfoWeights", "HPPoint", "SCALE_CHANNELS", "SCALE_RANK",
               "PARADIGMS"),
    "errors": ("ConfigError", "CheckFailure", "CheckpointError", "WorkerDied"),
    "autodiff": ("Var", "val", "reverse_grad", "finite_diff_check", "FiniteDiffReport",
                 "softmax_rows"),
    "rng": ("SeededRng",),
    "model": ("ModelParams", "MFVIState", "init_mfvi", "run_mfvi", "mlm_logits",
              "masked_ce_loss", "uniform_posteriors", "param_count"),
    "mup": ("INPUT", "HIDDEN", "OUTPUT", "BIAS", "classify_param", "init_sigma",
            "group_lr", "AdamW", "scale_width", "WidthScaler"),
    "corpus": ("Corpus", "encode_corpus", "decode_bytes", "mask_tokens", "split_chunks",
               "synth_text", "BYTE_VOCAB"),
    "training": ("TrainSettings", "RunRecord", "train_run", "SweepResult",
                 "transfer_sweep"),
    "diagnostics": ("DIAG_WEIGHTS", "DIAG_HP", "EquivalenceReport", "equivalence_check",
                    "tau_cancellation_check", "dense_oracle_check", "CoordReport",
                    "coord_check", "InitAudit", "init_variance_audit", "VarianceScan",
                    "logit_variance_scan", "MagnitudeFit", "energy_entropy_probe",
                    "entropy_uniform_exact"),
    "search": ("min_samples", "sample_size_bound", "confidence", "hp_distance",
               "sample_neighborhood", "verify_local_optimality", "VerificationReport"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
