"""The code pjo generates, one plain module per generator, each imported on
first use: written by ``scripts/generate_code.py`` with ``pjo._codegen``."""
