"""Code generation backends (§4.6): Python (the JIT) and WVM."""
