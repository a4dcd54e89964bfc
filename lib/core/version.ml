let current = "1.12.0"
