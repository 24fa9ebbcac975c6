"""Host-speed calibration for ``setup_s``: a fresh interpreter imports a
fixed set of standard-library packages, pure Python and C extensions alike,
as the program's import does with numpy.

    python3 perfbench/import_calibration.py

Prints the import time (s).  Nothing here depends on the program, so a
change to the program never moves this figure.
"""

import time

T0 = time.perf_counter()

import asyncio  # noqa: E402,F401
import calendar  # noqa: E402,F401
import decimal  # noqa: E402,F401
import difflib  # noqa: E402,F401
import email.parser  # noqa: E402,F401
import http.client  # noqa: E402,F401
import sqlite3  # noqa: E402,F401
import tarfile  # noqa: E402,F401
import unittest  # noqa: E402,F401
import xml.dom.minidom  # noqa: E402,F401
import zipfile  # noqa: E402,F401

print(time.perf_counter() - T0)
