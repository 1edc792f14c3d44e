"""Run the kernel's tests against an ASan+UBSan build of _kernel.c.

From the root of the repository:

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \\
    PYTHONMALLOC=malloc ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src python tests/sanitize.py

The sanitizer runtimes must be loaded before Python starts, hence
LD_PRELOAD.  PYTHONMALLOC=malloc sends every allocation through malloc, so
ASan also guards the small ctypes arrays that Python's own allocator would
otherwise hand out; the interpreter's leaks are not the kernel's, so leak
checking is off.  pytest captures output at the Python level only, so a
sanitizer's report, written to file descriptor 2 just before it ends the
process, is not lost with the captured output.  Any arguments are passed
on to pytest.
"""

import sys

import pytest

from waerden import _native

# a library built with these flags is cached under its own name
_native._COMPILE = (
    *_native._COMPILE, "-g", "-fsanitize=address,undefined", "-fno-omit-frame-pointer",
    "-fno-sanitize-recover=all",
)
tests = ["tests/test_native.py", "tests/test_search.py", "tests/test_cnf.py"]
sys.exit(pytest.main(["-q", "--capture=sys", *tests, *sys.argv[1:]]))
