"""The repository benchmark (see ``perfbench/NOTES.md``)."""
