"""Hypothesis draws that depend on the tests alone.

Hypothesis 6.x mixes literals it finds in local, non-test modules (here the
package under src/) into its draws, derandomized ones included.  Without
this file, a new constant anywhere in qprod would change what every
derandomized test draws, and with it what the test checks and how long the
test suite runs.  The pool of local literals is replaced by an empty one;
hypothesis's own global constants are kept.  Versions without that pool are
left as they are.
"""

from hypothesis.internal.conjecture import providers

if hasattr(providers, "_get_local_constants"):
    _NO_LOCAL_CONSTANTS = providers.Constants()
    providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS
