"""Facts shared by the numeric modules and the CLI parser, kept free of
numpy so that parsing an argv loads none of the library."""

__all__ = ["LABEL_MODELS", "CAP_N_MAX"]

# the models whose levels carry closed-form (branch, N) labels
LABEL_MODELS = ("jc", "ajc")

# largest Fock cutoff certification doubles up to
CAP_N_MAX = 2048
