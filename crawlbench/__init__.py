"""Oracle-checked crawl and query benchmark (see README.md)."""
