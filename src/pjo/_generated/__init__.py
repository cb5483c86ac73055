"""The code pjo generates from its field table, one module per generator,
written by ``scripts/generate_code.py``; see ``records.define``."""
