"""The repo's one end-to-end replication benchmark (see README.md here)."""
