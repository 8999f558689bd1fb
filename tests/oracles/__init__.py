"""Independent reference implementations the tests compare the package
against.  Nothing under src/ imports from here."""
