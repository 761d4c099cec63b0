"""Hypothesis settings shared by every test module.

Shrinking is off: a failing property reports the example that first
failed instead of searching for a smaller one, which on the exact
kernels can take minutes.  The examples drawn are the same.
"""

from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("no-shrink")
